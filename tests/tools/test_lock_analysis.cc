/**
 * @file
 * Lock-discipline pass tests (tools/analysis/lock_pass.*).
 *
 * Fixture sources are in-memory string literals — the repo's own
 * lint run blanks string contents, so nothing here registers as a
 * real declaration or acquisition. The suite leans on negative
 * paths: a seeded rank cycle, blocking calls under held guards, raw
 * mutexes and bad registry references must all FAIL the pass, so a
 * green `lint` target means the discipline is actually checked, not
 * vacuously clean.
 */

#include "analysis/lock_pass.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "analysis/finding.h"
#include "analysis/source_model.h"
#include "lint_rules.h"

namespace naspipe {
namespace {

using analysis::Finding;
using analysis::LockRegistry;
using analysis::SourceFile;
using analysis::makeSourceFile;

/** A three-rank fixture registry shaped like the real lock_rank.h. */
const char *const kRegistrySource =
    "namespace naspipe {\n"
    "enum class LockRank : int {\n"
    "    Outer = 10,\n"
    "    Middle = 20,\n"
    "    Inner = 30,\n"
    "};\n"
    "}\n";

SourceFile
registryFile()
{
    return makeSourceFile("src/common/lock_rank.h",
                          kRegistrySource);
}

LockRegistry
fixtureRegistry()
{
    return LockRegistry::parse(registryFile());
}

std::vector<std::string>
rulesOf(const std::vector<Finding> &findings)
{
    std::vector<std::string> rules;
    for (const Finding &f : findings)
        rules.push_back(f.rule);
    return rules;
}

bool
hasRule(const std::vector<Finding> &findings, const std::string &rule)
{
    for (const Finding &f : findings)
        if (f.rule == rule)
            return true;
    return false;
}

TEST(LockRegistry, ParsesTheEnumBlock)
{
    LockRegistry registry = fixtureRegistry();
    EXPECT_FALSE(registry.empty());
    EXPECT_EQ(registry.levelOf("Outer"), 10);
    EXPECT_EQ(registry.levelOf("Middle"), 20);
    EXPECT_EQ(registry.levelOf("Inner"), 30);
    EXPECT_EQ(registry.levelOf("Nonexistent"), -1);
    EXPECT_EQ(registry.ranksByLevel(),
              (std::vector<std::string>{"Outer", "Middle", "Inner"}));
}

TEST(LockRegistry, ParsesTheRealLockRankHeader)
{
    SourceFile real;
    std::string error;
    // ctest runs from build/; the source tree is a sibling of it.
    for (const char *candidate :
         {"../src/common/lock_rank.h", "src/common/lock_rank.h",
          "../../src/common/lock_rank.h"}) {
        if (analysis::loadSourceFile(candidate, real, &error)) {
            LockRegistry registry = LockRegistry::parse(real);
            EXPECT_GE(registry.ranksByLevel().size(), 9u);
            EXPECT_EQ(registry.levelOf("ExecQueue"), 50);
            EXPECT_LT(registry.levelOf("ServeClient"),
                      registry.levelOf("VerifyOracle"));
            return;
        }
    }
    GTEST_SKIP() << "source tree not reachable from test cwd";
}

TEST(LockPass, CleanAscendingNestingProducesNoFindings)
{
    SourceFile decl = makeSourceFile(
        "src/fake/widget.h",
        "struct Widget {\n"
        "    RankedMutex outerMu{LockRank::Outer};\n"
        "    RankedMutex innerMu{LockRank::Inner};\n"
        "};\n");
    SourceFile use = makeSourceFile(
        "src/fake/widget.cc",
        "void Widget::update()\n"
        "{\n"
        "    std::lock_guard<RankedMutex> g1(outerMu);\n"
        "    std::lock_guard<RankedMutex> g2(innerMu);\n"
        "    refresh();\n"
        "}\n");
    std::vector<Finding> findings =
        analysis::runLockPass(fixtureRegistry(), {decl, use});
    EXPECT_TRUE(findings.empty()) << findings.size() << " findings";
}

// The acceptance-criteria test: a seeded rank cycle in fixture
// source must demonstrably fail the pass.
TEST(LockPass, SeededRankCycleFailsThePass)
{
    SourceFile decl = makeSourceFile(
        "src/fake/pair.h",
        "struct Pair {\n"
        "    RankedMutex leftMu{LockRank::Outer};\n"
        "    RankedMutex rightMu{LockRank::Inner};\n"
        "};\n");
    SourceFile forward = makeSourceFile(
        "src/fake/forward.cc",
        "void transferForward()\n"
        "{\n"
        "    std::lock_guard<RankedMutex> g1(leftMu);\n"
        "    std::lock_guard<RankedMutex> g2(rightMu);\n"
        "}\n");
    SourceFile backward = makeSourceFile(
        "src/fake/backward.cc",
        "void transferBackward()\n"
        "{\n"
        "    std::lock_guard<RankedMutex> g1(rightMu);\n"
        "    std::lock_guard<RankedMutex> g2(leftMu);\n"
        "}\n");
    std::vector<Finding> findings = analysis::runLockPass(
        fixtureRegistry(), {decl, forward, backward});

    // The backward direction violates the declared order...
    ASSERT_TRUE(hasRule(findings, "lock-rank-order"))
        << "rank-order violation not detected";
    // ...and the pair of sites forms a cycle in the lock-order
    // graph — the classic AB/BA deadlock, reported on both edges.
    ASSERT_TRUE(hasRule(findings, "lock-cycle"))
        << "AB/BA cycle not detected";
    std::size_t cycleFindings = 0;
    for (const Finding &f : findings)
        if (f.rule == "lock-cycle")
            cycleFindings++;
    EXPECT_EQ(cycleFindings, 2u) << "one finding per cycle edge";
    for (const Finding &f : findings) {
        if (f.rule == "lock-rank-order") {
            EXPECT_EQ(f.file, "src/fake/backward.cc");
        }
        if (f.rule == "lock-cycle") {
            EXPECT_NE(f.excerpt.find("cycle"), std::string::npos);
        }
    }
}

TEST(LockPass, BlockingCallsUnderAGuardAreFindings)
{
    SourceFile decl = makeSourceFile(
        "src/fake/owner.h",
        "struct Owner {\n"
        "    RankedMutex stateMu{LockRank::Middle};\n"
        "};\n");
    SourceFile use = makeSourceFile(
        "src/fake/owner.cc",
        "void Owner::bad()\n"
        "{\n"
        "    std::lock_guard<RankedMutex> g(stateMu);\n"
        "    ExecTask task = inbox.pop();\n"
        "}\n"
        "void Owner::alsoBad()\n"
        "{\n"
        "    std::lock_guard<RankedMutex> g(stateMu);\n"
        "    worker.join();\n"
        "}\n"
        "void Owner::pushToo()\n"
        "{\n"
        "    std::lock_guard<RankedMutex> g(stateMu);\n"
        "    inbox.push(task);\n"
        "}\n");
    std::vector<Finding> findings =
        analysis::runLockPass(fixtureRegistry(), {decl, use});
    EXPECT_EQ(rulesOf(findings),
              (std::vector<std::string>{"blocking-under-lock",
                                        "blocking-under-lock",
                                        "blocking-under-lock"}));
}

TEST(LockPass, ConditionWaitOnOwnSoleUniqueLockIsSanctioned)
{
    SourceFile decl = makeSourceFile(
        "src/fake/cvowner.h",
        "struct CvOwner {\n"
        "    RankedMutex cvMu{LockRank::Middle};\n"
        "    RankedMutex auxMu{LockRank::Inner};\n"
        "};\n");
    SourceFile good = makeSourceFile(
        "src/fake/cv_good.cc",
        "void CvOwner::waitForWork()\n"
        "{\n"
        "    std::unique_lock<RankedMutex> lock(cvMu);\n"
        "    cv.wait(lock, [this] { return ready; });\n"
        "    cv.wait_for(lock, pollInterval);\n"
        "}\n");
    EXPECT_TRUE(analysis::runLockPass(fixtureRegistry(),
                                      {decl, good})
                    .empty())
        << "cv wait on the caller's own sole unique_lock is the "
           "sanctioned pattern";

    // Waiting while a SECOND lock is held still blocks that rank.
    SourceFile bad = makeSourceFile(
        "src/fake/cv_bad.cc",
        "void CvOwner::waitHoldingTwo()\n"
        "{\n"
        "    std::unique_lock<RankedMutex> lock(cvMu);\n"
        "    std::lock_guard<RankedMutex> aux(auxMu);\n"
        "    cv.wait(lock, [this] { return ready; });\n"
        "}\n");
    std::vector<Finding> findings =
        analysis::runLockPass(fixtureRegistry(), {decl, bad});
    EXPECT_TRUE(hasRule(findings, "blocking-under-lock"));
}

TEST(LockPass, ExplicitUnlockReleasesTheGuard)
{
    SourceFile decl = makeSourceFile(
        "src/fake/relock.h",
        "struct Relock {\n"
        "    RankedMutex loopMu{LockRank::Middle};\n"
        "};\n");
    SourceFile use = makeSourceFile(
        "src/fake/relock.cc",
        "void Relock::poll()\n"
        "{\n"
        "    std::unique_lock<RankedMutex> lock(loopMu);\n"
        "    lock.unlock();\n"
        "    heavyScan.join();\n"  // guard released: not blocking
        "    lock.lock();\n"
        "    consume();\n"
        "}\n");
    EXPECT_TRUE(
        analysis::runLockPass(fixtureRegistry(), {decl, use})
            .empty())
        << "the unlock()..lock() window must not count as held";
}

TEST(LockPass, GuardScopeEndsAtItsClosingBrace)
{
    SourceFile decl = makeSourceFile(
        "src/fake/scoped.h",
        "struct Scoped {\n"
        "    RankedMutex flagMu{LockRank::Middle};\n"
        "};\n");
    SourceFile use = makeSourceFile(
        "src/fake/scoped.cc",
        "void Scoped::signal()\n"
        "{\n"
        "    {\n"
        "        std::lock_guard<RankedMutex> lock(flagMu);\n"
        "        flag = true;\n"
        "    }\n"
        "    worker.join();\n"  // outside the guard's scope
        "}\n");
    EXPECT_TRUE(
        analysis::runLockPass(fixtureRegistry(), {decl, use})
            .empty());
}

TEST(LockPass, RawMutexDeclarationsAreFindings)
{
    using analysis::runRawMutexRule;
    EXPECT_EQ(rulesOf(runRawMutexRule(makeSourceFile(
                  "src/fake/raw.h", "std::mutex plainMu;\n"))),
              std::vector<std::string>{"raw-mutex"});
    EXPECT_EQ(rulesOf(runRawMutexRule(
                  makeSourceFile("src/fake/raw2.h",
                                 "std::shared_mutex tableMu;\n"))),
              std::vector<std::string>{"raw-mutex"});
    EXPECT_EQ(rulesOf(runRawMutexRule(makeSourceFile(
                  "src/fake/raw3.h",
                  "std::condition_variable readyCv;\n"))),
              std::vector<std::string>{"raw-mutex"});

    // condition_variable_any pairs with RankedMutex: not a finding.
    EXPECT_TRUE(runRawMutexRule(
                    makeSourceFile(
                        "src/fake/ok.h",
                        "std::condition_variable_any readyCv;\n"))
                    .empty());
    // Template mentions are uses, not declarations.
    EXPECT_TRUE(
        runRawMutexRule(
            makeSourceFile(
                "src/fake/ok2.cc",
                "std::lock_guard<std::mutex> lock(peerMu);\n"))
            .empty());
    // The wrapper itself owns the only sanctioned raw primitives.
    EXPECT_TRUE(runRawMutexRule(
                    makeSourceFile("src/common/lock_rank.h",
                                   "std::mutex _mu;\n"))
                    .empty());
    // Out-of-src trees (tests may use plain mutexes in harnesses).
    EXPECT_TRUE(runRawMutexRule(
                    makeSourceFile("tests/fake/test_x.cc",
                                   "std::mutex harnessMu;\n"))
                    .empty());
}

TEST(LockPass, UnknownRankAndAmbiguousNameAreFindings)
{
    SourceFile unknown = makeSourceFile(
        "src/fake/unknown.h",
        "RankedMutex mysteryMu{LockRank::Nonexistent};\n");
    std::vector<Finding> findings =
        analysis::runLockPass(fixtureRegistry(), {unknown});
    EXPECT_EQ(rulesOf(findings),
              std::vector<std::string>{"unknown-lock-rank"});

    SourceFile first = makeSourceFile(
        "src/fake/first.h",
        "RankedMutex sharedNameMu{LockRank::Outer};\n");
    SourceFile second = makeSourceFile(
        "src/fake/second.h",
        "RankedMutex sharedNameMu{LockRank::Inner};\n");
    findings =
        analysis::runLockPass(fixtureRegistry(), {first, second});
    EXPECT_EQ(rulesOf(findings),
              std::vector<std::string>{"ambiguous-lock-name"});
    EXPECT_EQ(findings[0].file, "src/fake/second.h");
}

TEST(LockPass, ReasonedAllowSuppresses)
{
    SourceFile decl = makeSourceFile(
        "src/fake/allow.h",
        "struct Allowed {\n"
        "    RankedMutex hiMu{LockRank::Inner};\n"
        "    RankedMutex loMu{LockRank::Outer};\n"
        "};\n");
    // With a reasoned allow() on the offending line: suppressed.
    SourceFile allowed = makeSourceFile(
        "src/fake/allowed.cc",
        "void Allowed::inverted()\n"
        "{\n"
        "    std::lock_guard<RankedMutex> g1(hiMu);\n"
        "    // naspipe-lint: allow(lock-rank-order) startup path\n"
        "    std::lock_guard<RankedMutex> g2(loMu);\n"
        "}\n");
    std::vector<Finding> findings =
        analysis::runLockPass(fixtureRegistry(), {decl, allowed});
    EXPECT_FALSE(hasRule(findings, "lock-rank-order"));

    // A bare allow() without a reason does not suppress.
    SourceFile bare = makeSourceFile(
        "src/fake/bare.cc",
        "void Allowed::inverted()\n"
        "{\n"
        "    std::lock_guard<RankedMutex> g1(hiMu);\n"
        "    // naspipe-lint: allow(lock-rank-order)\n"
        "    std::lock_guard<RankedMutex> g2(loMu);\n"
        "}\n");
    findings =
        analysis::runLockPass(fixtureRegistry(), {decl, bare});
    EXPECT_TRUE(hasRule(findings, "lock-rank-order"));
}

TEST(LockPass, BaselineRoundTripMasksOldFindingsOnly)
{
    SourceFile decl = makeSourceFile(
        "src/fake/base.h",
        "struct Base {\n"
        "    RankedMutex upMu{LockRank::Inner};\n"
        "    RankedMutex downMu{LockRank::Outer};\n"
        "};\n");
    SourceFile bad = makeSourceFile(
        "src/fake/base.cc",
        "void Base::inverted()\n"
        "{\n"
        "    std::lock_guard<RankedMutex> g1(upMu);\n"
        "    std::lock_guard<RankedMutex> g2(downMu);\n"
        "}\n");
    std::vector<Finding> findings =
        analysis::runLockPass(fixtureRegistry(), {decl, bad});
    ASSERT_FALSE(findings.empty());

    // Round-trip every finding through the baseline: none are new.
    std::set<std::string> baseline;
    for (const Finding &f : findings)
        baseline.insert(analysis::baselineKey(f));
    EXPECT_EQ(analysis::applyBaseline(findings, baseline), 0u);
    for (const Finding &f : findings)
        EXPECT_TRUE(f.baselined);

    // A baseline for a DIFFERENT site leaves these findings new.
    std::set<std::string> unrelated{"lock-rank-order|other.cc|x"};
    EXPECT_EQ(analysis::applyBaseline(findings, unrelated),
              findings.size());
}

TEST(LockDiscipline, FacadeDiscoversTheRegistryInTheSet)
{
    SourceFile decl = makeSourceFile(
        "src/fake/auto.h",
        "struct Auto {\n"
        "    RankedMutex aMu{LockRank::Inner};\n"
        "    RankedMutex bMu{LockRank::Outer};\n"
        "};\n");
    SourceFile bad = makeSourceFile(
        "src/fake/auto.cc",
        "void Auto::inverted()\n"
        "{\n"
        "    std::lock_guard<RankedMutex> g1(aMu);\n"
        "    std::lock_guard<RankedMutex> g2(bMu);\n"
        "}\n");
    // With the registry in the set, the violation resolves.
    std::vector<Finding> findings =
        lint::scanLockDiscipline({registryFile(), decl, bad});
    EXPECT_TRUE(hasRule(findings, "lock-rank-order"));

    // Without it, ranks cannot be audited: every declaration is an
    // unknown-lock-rank finding instead of silent acceptance.
    findings = lint::scanLockDiscipline({decl, bad});
    EXPECT_EQ(rulesOf(findings),
              (std::vector<std::string>{"unknown-lock-rank",
                                        "unknown-lock-rank"}));
}

} // namespace
} // namespace naspipe
