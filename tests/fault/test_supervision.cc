/**
 * @file
 * Supervision-layer tests: the recovery policy's bounded retries
 * and exponential backoff, the service's opt-in wall deadline (hang
 * detection), and the seeded fault plan's determinism (the
 * executor-agnostic contract — one seed, one event sequence,
 * everywhere).
 */

#include <gtest/gtest.h>

#include <string>

#include "fault/fault_plan.h"
#include "fault/recovery_policy.h"
#include "obs/wall_clock.h"
#include "schedule/scheduler.h"
#include "serve/service.h"

namespace naspipe {
namespace {

using fault::RecoveryPolicy;

TEST(RecoveryPolicy, BacksOffExponentiallyWithCap)
{
    RecoveryPolicy policy(
        RecoveryPolicy::Config{10, /*base=*/1.0, /*max=*/5.0});
    EXPECT_DOUBLE_EQ(policy.nextBackoffSeconds(), 1.0);
    EXPECT_DOUBLE_EQ(policy.nextBackoffSeconds(), 2.0);
    EXPECT_DOUBLE_EQ(policy.nextBackoffSeconds(), 4.0);
    EXPECT_DOUBLE_EQ(policy.nextBackoffSeconds(), 5.0);  // capped
    EXPECT_DOUBLE_EQ(policy.nextBackoffSeconds(), 5.0);
    EXPECT_EQ(policy.totalRecoveries(), 5);
}

TEST(RecoveryPolicy, BoundsConsecutiveRetries)
{
    RecoveryPolicy policy(RecoveryPolicy::Config{2, 1.0, 60.0});
    EXPECT_TRUE(policy.allowRetry());
    policy.nextBackoffSeconds();
    EXPECT_TRUE(policy.allowRetry());
    policy.nextBackoffSeconds();
    EXPECT_FALSE(policy.allowRetry());
    EXPECT_EQ(policy.consecutiveFailures(), 2);
}

TEST(RecoveryPolicy, ZeroRetriesRefusesTheFirstAttempt)
{
    RecoveryPolicy policy(RecoveryPolicy::Config{0, 1.0, 60.0});
    EXPECT_FALSE(policy.allowRetry());
}

TEST(RecoveryPolicy, ProgressResetsTheConsecutiveCountNotTheTotal)
{
    RecoveryPolicy policy(RecoveryPolicy::Config{2, 1.0, 60.0});
    policy.nextBackoffSeconds();
    policy.nextBackoffSeconds();
    EXPECT_FALSE(policy.allowRetry());
    policy.noteProgress();
    EXPECT_TRUE(policy.allowRetry());
    EXPECT_EQ(policy.consecutiveFailures(), 0);
    EXPECT_EQ(policy.totalRecoveries(), 2);
    // Backoff restarts at the base after progress.
    EXPECT_DOUBLE_EQ(policy.nextBackoffSeconds(), 1.0);
}

/** What one in-process SearchService run of a small space ended
 *  with. */
struct ServiceRun {
    int outcome = -1;
    std::string error;
    double seconds = 0.0;  ///< wall time of run()
    std::uint64_t hash = 0;
};

/** A two-stage in-process run under the wall deadline @p deadline
 *  (0 = off), with the fault @p fault when non-empty. */
ServiceRun
runInService(const std::string &fault, double deadline)
{
    SearchSpace space("supervision", SpaceFamily::Nlp, 8, 4, 3);
    RuntimeConfig c;
    c.system = naspipeSystem();
    c.numStages = 2;
    c.totalSubnets = 16;
    c.seed = 7;
    if (!fault.empty()) {
        FaultSpec spec;
        std::string error;
        EXPECT_TRUE(parseFaultSpec(fault, spec, &error)) << error;
        c.faults.push_back(spec);
    }
    serve::ServiceConfig sc;
    sc.numStages = 2;
    sc.wallDeadlineSeconds = deadline;
    serve::SearchService service(sc);
    std::string why;
    int id = service.submitInProcess(space, c, &why);
    EXPECT_GT(id, 0) << why;
    ServiceRun r;
    obs::TimePoint start = obs::now();
    r.outcome = service.run();
    r.seconds = obs::secondsSince(start);
    r.error = service.serviceError();
    r.hash = service.takeResult(id).supernetHash;
    return r;
}

TEST(WallDeadline, FailsAHungRunPromptly)
{
    // stage 0 stalls through 2,000 one-ms waits; nothing completes
    // for far longer than the 0.2 s deadline.
    ServiceRun r = runInService("stall@4,ms=2000", 0.2);
    EXPECT_EQ(r.outcome, serve::SearchService::ServiceFailed);
    EXPECT_NE(r.error.find("wall deadline"), std::string::npos)
        << r.error;
    // The abort ends the stall early instead of waiting it out.
    EXPECT_LT(r.seconds, 1.5);
}

TEST(WallDeadline, IsOptIn)
{
    ServiceRun clean = runInService("", 5.0);
    ASSERT_EQ(clean.outcome, serve::SearchService::AllDone)
        << clean.error;
    // The same stall without a deadline only stretches wall time.
    ServiceRun stalled = runInService("stall@4,ms=2000", 0);
    EXPECT_EQ(stalled.outcome, serve::SearchService::AllDone)
        << stalled.error;
    EXPECT_EQ(stalled.hash, clean.hash);
    EXPECT_NE(clean.hash, 0u);
}

TEST(FaultPlan, SeededPlanIsAPureFunctionOfItsArguments)
{
    auto a = FaultInjector::randomPlan(42, 6, 100, 8);
    auto b = FaultInjector::randomPlan(42, 6, 100, 8);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i++)
        EXPECT_EQ(a[i].describe(), b[i].describe());

    auto c = FaultInjector::randomPlan(43, 6, 100, 8);
    std::string seqA, seqC;
    for (const FaultSpec &f : a)
        seqA += f.describe() + ";";
    for (const FaultSpec &f : c)
        seqC += f.describe() + ";";
    EXPECT_NE(seqA, seqC);
}

TEST(FaultPlan, ParseAcceptsWellFormedSpecs)
{
    FaultSpec spec;
    std::string error;
    ASSERT_TRUE(parseFaultSpec("crash@13,stage=2", spec, &error))
        << error;
    EXPECT_EQ(spec.kind, FaultKind::GpuCrash);
    EXPECT_EQ(spec.atStep, 13);
    EXPECT_EQ(spec.stage, 2);
    ASSERT_TRUE(parseFaultSpec("stall@0,ms=2.5", spec, &error))
        << error;
    EXPECT_EQ(spec.atStep, 0);
    EXPECT_DOUBLE_EQ(spec.durationMs, 2.5);
}

TEST(FaultPlan, ParseRejectsMalformed)
{
    // 2^32 + 1 used to wrap to a crash at step 1.
    for (const char *text :
         {"crash@4294967297", "crash@2147483648", "crash@3x",
          "crash@2.5", "crash@0x10", "crash@-1", "crash@",
          "crash@4,stage=1x", "crash@4,stage=4294967297",
          "crash@4,stage=-1"}) {
        FaultSpec spec;
        std::string error;
        EXPECT_FALSE(parseFaultSpec(text, spec, &error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(FaultPlan, InjectorFiresEachSpecExactlyOnce)
{
    FaultSpec crash;
    crash.kind = FaultKind::GpuCrash;
    crash.atStep = 5;
    FaultInjector injector({crash});
    EXPECT_TRUE(injector.due(4).empty());
    EXPECT_EQ(injector.due(5).size(), 1u);
    // A recovery rewinds the completion clock below the trigger and
    // replays through it; the fired flag prevents a refire.
    EXPECT_TRUE(injector.due(5).empty());
    EXPECT_EQ(injector.firedCount(), 1);
    EXPECT_FALSE(injector.anyPending());
}

} // namespace
} // namespace naspipe
