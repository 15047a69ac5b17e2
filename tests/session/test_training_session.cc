/**
 * @file
 * TrainingSession under a mock ExecutionBackend — the coordinator
 * core in isolation. The tests pin the injection-gate *ordering*
 * (budget, in-flight window, checkpoint drain barrier, backend veto,
 * feedback lag), the feedback-lag-exact score delivery, the drained
 * checkpoint cadence and restore/replay, the record table a restored
 * run continues from, and the admissible()/pump()
 * agreement contract the serve layer's one-subnet-per-slot admission
 * depends on.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "session/training_session.h"
#include "supernet/sampler.h"
#include "supernet/search_space.h"

namespace naspipe {
namespace {

/** Records every backend callback; canAdmit is a togglable veto
 *  whose consultations are counted (the gate-ordering probe). */
class MockBackend : public ExecutionBackend
{
  public:
    bool canAdmit(SubnetId next) const override
    {
        (void)next;
        canAdmitCalls++;
        return !veto;
    }
    void admit(SubnetId id) override { admitted.push_back(id); }
    void restoreCompleted(SubnetId id) override
    {
        restored.push_back(id);
    }
    void applyFault(const DueFault &fault) override
    {
        faults.push_back(fault);
    }

    bool veto = false;
    mutable int canAdmitCalls = 0;
    std::vector<SubnetId> admitted;
    std::vector<SubnetId> restored;
    std::vector<DueFault> faults;
};

RuntimeConfig
config(int steps, int window)
{
    RuntimeConfig c;
    c.system = naspipeSystem();
    c.system.maxInflight = window;  // pin the in-flight gate
    c.numStages = 2;
    c.totalSubnets = steps;
    c.seed = 7;
    return c;
}

struct Fixture {
    Fixture(const SearchSpace &space, const RuntimeConfig &c)
        : session(space, c)
    {
        session.attach(&backend);
        EXPECT_TRUE(session.initRun());
    }
    /** Complete subnet @p id with a synthetic loss. */
    bool complete(SubnetId id)
    {
        return session.recordCompletion(
            id, 0.5f + 0.01f * static_cast<float>(id),
            0.1 * (id + 1));
    }
    /**
     * Train subnet @p id start to finish on this thread — every
     * stage forward, the loss, every stage backward — and return its
     * loss. Completing in ID order is a valid CSP interleaving, so
     * the weights match any executor's.
     */
    float train(SubnetId id)
    {
        const Subnet &sn = session.subnetOf(id);
        NumericExecutor &exec = session.exec();
        const int stages = 2;
        for (int k = 0; k < stages; k++) {
            auto [lo, hi] = session.blockRange(k, id);
            if (lo <= hi)
                exec.forwardStage(sn, lo, hi,
                                  UpdateSemantics::Immediate, k);
        }
        exec.computeLoss(sn);
        for (int k = stages - 1; k >= 0; k--) {
            auto [lo, hi] = session.blockRange(k, id);
            if (lo <= hi)
                exec.backwardStage(sn, lo, hi,
                                   UpdateSemantics::Immediate, k);
        }
        return exec.finishSubnet(sn);
    }
    /**
     * Train until @p until subnets completed, each through the
     * completion step at 0.1 s and 0.05 busy s per subnet into the
     * phase, so every drained barrier commits a checkpoint. Returns
     * true when it stopped early because a fail-stop fault fired.
     */
    bool drive(int until)
    {
        while (session.finished() < until) {
            session.pump();
            auto id = static_cast<SubnetId>(session.finished());
            if (session
                    .applyCompletion(id, train(id), 0.1 * (id + 1),
                                     0.05 * (id + 1))
                    .failStop)
                return true;
        }
        return false;
    }
    MockBackend backend;
    TrainingSession session;
};

/** Final supernet hash of a fault-free run of @p c. */
std::uint64_t
faultFreeHash(const SearchSpace &space, const RuntimeConfig &c)
{
    Fixture clean(space, c);
    EXPECT_FALSE(clean.drive(c.totalSubnets));
    return clean.session.store()->supernetHash();
}

TEST(TrainingSessionCore, PumpFillsTheInflightWindow)
{
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(8, 3);
    Fixture f(space, c);

    EXPECT_TRUE(f.session.admissible());
    EXPECT_EQ(f.session.pump(), 3);
    EXPECT_EQ(f.backend.admitted,
              (std::vector<SubnetId>{0, 1, 2}));
    EXPECT_EQ(f.session.inflight(), 3);
    EXPECT_FALSE(f.session.admissible());
    EXPECT_EQ(f.session.pump(), 0);

    f.complete(0);
    EXPECT_TRUE(f.session.admissible());
    EXPECT_EQ(f.session.pump(), 1);
    EXPECT_EQ(f.backend.admitted.back(), 3);
}

TEST(TrainingSessionCore, InvalidCompletionPanics)
{
    // The record table is checked where facts enter it: a negative
    // or NaN loss and a negative time are rejected, live or restored,
    // before any score, curve or checkpoint reads them.
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(8, 4);
    c.ckptInterval = 4;
    Fixture f(space, c);
    EXPECT_EQ(f.session.pump(), 4);
    EXPECT_THROW(f.session.recordCompletion(0, -0.5f, 1.0),
                 std::logic_error);
    EXPECT_THROW(f.session.recordCompletion(0, 0.5f, -1.0),
                 std::logic_error);
    EXPECT_THROW(f.session.recordCompletion(
                     0, std::numeric_limits<float>::quiet_NaN(), 1.0),
                 std::logic_error);
    // A rejected completion leaves the table and counters untouched.
    EXPECT_EQ(f.session.finished(), 0);
    for (SubnetId id = 0; id < 3; id++)
        f.complete(id);
    ASSERT_TRUE(f.complete(3));
    RunCheckpoint ckpt = f.session.buildCheckpoint(1.0, 0.5);

    RunCheckpoint badLoss = ckpt;
    badLoss.losses[1] = -1.0;
    Fixture lossTarget(space, c);
    EXPECT_THROW(lossTarget.session.restore(badLoss), std::logic_error);
    RunCheckpoint badTime = ckpt;
    badTime.completionSec[2] = -0.1;
    Fixture timeTarget(space, c);
    EXPECT_THROW(timeTarget.session.restore(badTime), std::logic_error);
}

TEST(TrainingSessionCore, PumpMaxCountInjectsOneSlotAtATime)
{
    // The serve layer's WRR admits one subnet per slot: pump(1) must
    // inject exactly one and preserve the sequence order.
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(6, 8);
    Fixture f(space, c);

    for (int i = 0; i < 6; i++)
        EXPECT_EQ(f.session.pump(1), 1) << "slot " << i;
    EXPECT_EQ(f.session.pump(1), 0);  // budget exhausted
    EXPECT_EQ(f.backend.admitted,
              (std::vector<SubnetId>{0, 1, 2, 3, 4, 5}));
}

TEST(TrainingSessionCore, VetoGateOrdering)
{
    // canAdmit sits AFTER the budget / in-flight / barrier gates and
    // BEFORE the feedback-lag gate: when an earlier gate blocks, the
    // backend is never consulted.
    SearchSpace space = makeSpaceByName("NLP.c1");

    {  // in-flight window full -> no consultation
        RuntimeConfig c = config(8, 2);
        Fixture f(space, c);
        EXPECT_EQ(f.session.pump(), 2);
        f.backend.canAdmitCalls = 0;
        EXPECT_FALSE(f.session.admissible());
        EXPECT_EQ(f.session.pump(), 0);
        EXPECT_EQ(f.backend.canAdmitCalls, 0);
    }
    {  // injection budget exhausted -> no consultation
        RuntimeConfig c = config(2, 8);
        Fixture f(space, c);
        EXPECT_EQ(f.session.pump(), 2);
        f.complete(0);
        f.complete(1);
        f.backend.canAdmitCalls = 0;
        EXPECT_FALSE(f.session.admissible());
        EXPECT_EQ(f.backend.canAdmitCalls, 0);
    }
    {  // checkpoint drain barrier -> no consultation
        RuntimeConfig c = config(8, 8);
        c.ckptInterval = 2;
        Fixture f(space, c);
        EXPECT_EQ(f.session.pump(), 2);  // stops at the barrier
        f.backend.canAdmitCalls = 0;
        EXPECT_FALSE(f.session.admissible());
        EXPECT_EQ(f.backend.canAdmitCalls, 0);
    }
    {  // otherwise the veto IS consulted, and blocks the draw
        RuntimeConfig c = config(8, 8);
        Fixture f(space, c);
        f.backend.veto = true;
        EXPECT_FALSE(f.session.admissible());
        EXPECT_GT(f.backend.canAdmitCalls, 0);
        EXPECT_EQ(f.session.pump(), 0);
        EXPECT_TRUE(f.backend.admitted.empty());
        // Releasing the veto resumes the exact sequence from 0.
        f.backend.veto = false;
        EXPECT_EQ(f.session.pump(), 8);
        EXPECT_EQ(f.backend.admitted.front(), 0);
    }
}

TEST(TrainingSessionCore, FeedbackLagGatesInjectionOnDeliveredScores)
{
    // lag = 3: subnet i may only be drawn once scores for every
    // subnet <= i-3 are *delivered* — delivery is in sequence-ID
    // order, so an out-of-order completion unlocks nothing until the
    // gap fills.
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(8, 16);
    c.feedbackLag = 3;
    Fixture f(space, c);
    EXPECT_EQ(f.session.effectiveFeedbackLag(), 3);

    EXPECT_EQ(f.session.pump(), 3);  // 0,1,2; 3 needs score(0)
    EXPECT_FALSE(f.session.admissible());

    f.complete(0);
    EXPECT_EQ(f.session.pump(), 1);  // 3 unlocked
    EXPECT_EQ(f.backend.admitted.back(), 3);

    f.complete(2);  // out of order: score(1) still missing
    EXPECT_FALSE(f.session.admissible());
    EXPECT_EQ(f.session.pump(), 0);

    f.complete(1);  // gap filled: scores 1 and 2 deliver in order
    EXPECT_EQ(f.session.pump(), 2);  // 4 and 5
    EXPECT_EQ(f.backend.admitted.back(), 5);

    f.complete(3);
    f.complete(4);
    f.complete(5);
    EXPECT_EQ(f.session.pump(), 2);  // 6 and 7: budget ends the run
    EXPECT_FALSE(f.session.admissible());
    f.complete(6);
    f.complete(7);
    EXPECT_EQ(f.session.finished(), 8);
}

TEST(TrainingSessionCore, CheckpointCadenceDrainsThePipeline)
{
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(8, 16);
    c.ckptInterval = 4;
    Fixture f(space, c);
    ASSERT_TRUE(f.session.ckptEnabled());
    EXPECT_EQ(f.session.nextCkptAt(), 4);

    // Injection pauses at the barrier even though the window (16)
    // has room, so finished == barrier implies inflight == 0.
    EXPECT_EQ(f.session.pump(), 4);
    EXPECT_FALSE(f.complete(0));
    EXPECT_FALSE(f.complete(1));
    EXPECT_FALSE(f.complete(2));
    EXPECT_TRUE(f.complete(3));  // the drained barrier
    EXPECT_EQ(f.session.inflight(), 0);

    RunCheckpoint ckpt = f.session.buildCheckpoint(1.0, 0.5);
    EXPECT_EQ(ckpt.completed, 4u);
    f.session.commitCheckpoint(ckpt);
    EXPECT_EQ(f.session.nextCkptAt(), 8);

    EXPECT_EQ(f.session.pump(), 4);
    EXPECT_FALSE(f.complete(4));
    EXPECT_FALSE(f.complete(5));
    EXPECT_FALSE(f.complete(6));
    EXPECT_TRUE(f.complete(7));
    EXPECT_EQ(f.session.finished(), 8);
}

TEST(TrainingSessionCore, RestoreReplaysWithoutReexecution)
{
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(8, 16);
    c.ckptInterval = 4;

    Fixture producer(space, c);
    EXPECT_EQ(producer.session.pump(), 4);
    for (SubnetId id = 0; id < 3; id++)
        producer.complete(id);
    ASSERT_TRUE(producer.complete(3));
    RunCheckpoint ckpt = producer.session.buildCheckpoint(1.0, 0.5);
    producer.session.commitCheckpoint(ckpt);

    // A fresh session restores the drained state: the backend sees
    // restoreCompleted (never admit) for every restored subnet, and
    // injection resumes at exactly subnet 4.
    Fixture resumed(space, c);
    ASSERT_TRUE(resumed.session.restore(ckpt));
    EXPECT_EQ(resumed.backend.restored,
              (std::vector<SubnetId>{0, 1, 2, 3}));
    EXPECT_TRUE(resumed.backend.admitted.empty());
    EXPECT_EQ(resumed.session.finished(), 4);
    EXPECT_EQ(resumed.session.injected(), 4);
    EXPECT_EQ(resumed.session.inflight(), 0);
    EXPECT_EQ(resumed.session.nextCkptAt(), 8);

    EXPECT_EQ(resumed.session.pump(), 4);
    EXPECT_EQ(resumed.backend.admitted,
              (std::vector<SubnetId>{4, 5, 6, 7}));
}

TEST(TrainingSessionCore, RollbackToTheLastCheckpointReplays)
{
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(8, 4);
    c.ckptInterval = 4;
    std::uint64_t want = faultFreeHash(space, c);

    FaultSpec crash;
    crash.atStep = 6;
    c.faults = {crash};
    Fixture f(space, c);
    ASSERT_TRUE(f.drive(8));  // the crash falls due at 6 completions
    ASSERT_EQ(f.session.finished(), 6);

    // The rollback restores from the last checkpoint's own bytes and
    // leaves them as they were.
    const std::string target = f.session.lastCheckpoint();
    ASSERT_FALSE(target.empty());

    // The phase rebuild runs after the re-init, before the restore.
    bool rebuilt = false;
    auto report = f.session.rollback(
        2.0, 1.5, 0.0, [&] {
            rebuilt = true;
            EXPECT_EQ(f.session.finished(), 0);
            EXPECT_TRUE(f.backend.restored.empty());
        });
    ASSERT_TRUE(report.has_value());
    EXPECT_TRUE(rebuilt);
    EXPECT_EQ(report->fromCompleted, 6);
    EXPECT_EQ(report->toCompleted, 4);
    EXPECT_EQ(f.backend.restored,
              (std::vector<SubnetId>{0, 1, 2, 3}));
    EXPECT_EQ(f.session.finished(), 4);
    EXPECT_EQ(f.session.lastCheckpoint(), target);
    // Crash time plus the modeled 5 s restart; busy time resumes
    // from the checkpoint's.
    EXPECT_DOUBLE_EQ(f.session.secOffset(), 2.0 + 5.0);
    EXPECT_DOUBLE_EQ(f.session.busyOffset(), 0.05 * 4);

    EXPECT_FALSE(f.drive(8));  // a fired fault never fires again
    RunResult r = f.session.collect(10.0, 1.0);
    EXPECT_EQ(r.metrics.faultsInjected, 1);
    EXPECT_EQ(r.metrics.recoveries, 1);
    EXPECT_EQ(r.metrics.subnetsReplayed, 2);
    EXPECT_DOUBLE_EQ(r.metrics.recoverySeconds, 5.0);
    EXPECT_DOUBLE_EQ(r.metrics.lostComputeSeconds, 1.5 - 0.05 * 4);
    EXPECT_EQ(r.supernetHash, want);
}

TEST(TrainingSessionCore, CompletionStepResolvesEachFaultOnce)
{
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(8, 4);
    c.numStages = 3;
    c.ckptInterval = 2;
    std::vector<FaultSpec> plan(3);
    plan[0].kind = FaultKind::StageStall;
    plan[0].atStep = 2;
    plan[0].stage = 7;  // clamps to the last stage
    plan[1].kind = FaultKind::LinkDegrade;
    plan[1].atStep = 2;
    plan[1].stage = 2;  // the last stage's link is the one below it
    plan[2].kind = FaultKind::LinkDrop;
    plan[2].atStep = 4;
    c.faults = plan;
    Fixture f(space, c);

    ASSERT_EQ(f.session.pump(), 2);  // up to the barrier at 2
    TrainingSession::Step step =
        f.session.applyCompletion(0, 0.5f, 0.1, 0.05);
    EXPECT_FALSE(step.failStop);
    EXPECT_FALSE(step.checkpointed);
    EXPECT_TRUE(f.backend.faults.empty());

    // Two transient faults, then the barrier checkpoint at the
    // phase's times.
    step = f.session.applyCompletion(1, 0.5f, 0.2, 0.125);
    ASSERT_EQ(f.backend.faults.size(), 2u);
    for (const DueFault &due : f.backend.faults) {
        EXPECT_EQ(due.stage, 2);
        EXPECT_EQ(due.link, 1);
        EXPECT_FALSE(due.failStop);
    }
    EXPECT_EQ(f.backend.faults[0].spec.kind, FaultKind::StageStall);
    EXPECT_EQ(f.backend.faults[1].spec.kind, FaultKind::LinkDegrade);
    EXPECT_FALSE(step.failStop);
    ASSERT_TRUE(step.checkpointed);
    EXPECT_GT(step.ckptWriteSeconds, 0.0);
    const std::string atTwo = f.session.lastCheckpoint();
    RunCheckpoint ckpt;
    ASSERT_TRUE(ckpt.load(atTwo));
    EXPECT_EQ(ckpt.completed, 2u);
    EXPECT_DOUBLE_EQ(ckpt.simSeconds, 0.2);
    EXPECT_DOUBLE_EQ(ckpt.busySeconds, 0.125);

    // A fail-stop at the next barrier leaves the checkpoint untaken.
    ASSERT_EQ(f.session.pump(), 2);
    f.session.applyCompletion(2, 0.5f, 0.3, 0.15);
    step = f.session.applyCompletion(3, 0.5f, 0.4, 0.2);
    ASSERT_EQ(f.backend.faults.size(), 3u);
    EXPECT_EQ(f.backend.faults[2].stage, 0);
    EXPECT_EQ(f.backend.faults[2].link, 0);
    EXPECT_TRUE(f.backend.faults[2].failStop);
    EXPECT_TRUE(step.failStop);
    EXPECT_FALSE(step.checkpointed);
    EXPECT_EQ(f.session.lastCheckpoint(), atTwo);
    EXPECT_EQ(f.session.faults().firedCount(), 3);
}

TEST(TrainingSessionCore, LinkFaultsDoNotApplyToOneStage)
{
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(4, 4);
    c.numStages = 1;
    std::vector<FaultSpec> plan(2);
    plan[0].kind = FaultKind::LinkDrop;
    plan[0].atStep = 1;
    plan[1].kind = FaultKind::GpuCrash;
    plan[1].atStep = 2;
    plan[1].stage = 3;
    c.faults = plan;
    Fixture f(space, c);
    ASSERT_EQ(f.session.pump(), 4);
    // The drop fires (it is counted) but has no link to hit.
    EXPECT_FALSE(f.session.applyCompletion(0, 0.5f, 0.1, 0.0).failStop);
    EXPECT_TRUE(f.backend.faults.empty());
    EXPECT_EQ(f.session.faults().firedCount(), 1);
    EXPECT_TRUE(f.session.applyCompletion(1, 0.5f, 0.2, 0.0).failStop);
    ASSERT_EQ(f.backend.faults.size(), 1u);
    EXPECT_EQ(f.backend.faults[0].stage, 0);
    EXPECT_TRUE(f.backend.faults[0].failStop);
}

TEST(TrainingSessionCore, RollbackWithoutACheckpointRestartsAtZero)
{
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(8, 4);
    std::uint64_t want = faultFreeHash(space, c);

    Fixture f(space, c);
    EXPECT_FALSE(f.drive(3));
    ASSERT_TRUE(f.session.lastCheckpoint().empty());
    auto report = f.session.rollback(1.0, 0.5, 2.0, nullptr);
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->fromCompleted, 3);
    EXPECT_EQ(report->toCompleted, 0);
    EXPECT_TRUE(f.backend.restored.empty());
    EXPECT_EQ(f.session.finished(), 0);
    EXPECT_EQ(f.session.injected(), 0);
    // The 5 s restart plus the caller's extra 2 s.
    EXPECT_DOUBLE_EQ(f.session.secOffset(), 1.0 + 5.0 + 2.0);
    EXPECT_DOUBLE_EQ(f.session.busyOffset(), 0.0);

    EXPECT_FALSE(f.drive(8));
    RunResult r = f.session.collect(10.0, 1.0);
    EXPECT_EQ(r.metrics.faultsInjected, 0);
    EXPECT_EQ(r.metrics.recoveries, 1);
    EXPECT_EQ(r.metrics.subnetsReplayed, 3);
    EXPECT_DOUBLE_EQ(r.metrics.recoverySeconds, 5.0 + 2.0);
    EXPECT_DOUBLE_EQ(r.metrics.lostComputeSeconds, 0.5);
    EXPECT_EQ(r.supernetHash, want);
}

TEST(TrainingSessionCore, ResumeAdoptsTheFileClockAndCount)
{
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(8, 4);
    c.ckptInterval = 4;
    std::uint64_t want = faultFreeHash(space, c);

    RuntimeConfig producing = c;
    producing.ckptPath =
        ::testing::TempDir() + "naspipe_session_resume.ckpt";
    {
        Fixture producer(space, producing);
        EXPECT_FALSE(producer.drive(4));  // one barrier, on disk
    }

    Fixture f(space, c);
    ASSERT_TRUE(f.session.resume(producing.ckptPath));
    EXPECT_EQ(f.backend.restored,
              (std::vector<SubnetId>{0, 1, 2, 3}));
    EXPECT_EQ(f.session.finished(), 4);
    EXPECT_DOUBLE_EQ(f.session.secOffset(), 0.1 * 4);
    EXPECT_DOUBLE_EQ(f.session.busyOffset(), 0.05 * 4);
    // A current-format file already is the rollback target.
    {
        std::ifstream in(producing.ckptPath, std::ios::binary);
        const std::string file(std::istreambuf_iterator<char>(in), {});
        ASSERT_FALSE(file.empty());
        EXPECT_EQ(f.session.lastCheckpoint(), file);
    }

    EXPECT_FALSE(f.drive(8));
    RunResult r = f.session.collect(10.0, 1.0);
    // The producer's one checkpoint plus this run's barrier at 8.
    EXPECT_EQ(r.metrics.checkpointsWritten, 2);
    EXPECT_EQ(r.supernetHash, want);

    RuntimeConfig other = c;
    other.seed = c.seed + 1;
    Fixture stranger(space, other);
    EXPECT_FALSE(stranger.session.resume(producing.ckptPath));
    EXPECT_TRUE(stranger.backend.restored.empty());
    EXPECT_EQ(stranger.session.finished(), 0);
    std::remove(producing.ckptPath.c_str());

    // Older files (the committed v1 and v2 fixtures: CV.c3, 2 stages,
    // 16 subnets, seed 7) become a current-format rollback target
    // that restores again onto the same weights.
    SearchSpace cv = makeSpaceByName("CV.c3");
    const RuntimeConfig fixtureConfig = config(16, 16);
    for (const char *name : {"cv_c3_v1.ckpt", "cv_c3_v2.ckpt"}) {
        SCOPED_TRACE(name);
        Fixture old(cv, fixtureConfig);
        ASSERT_TRUE(old.session.resume(std::string(NASPIPE_TEST_DATA_DIR) +
                                       "/" + name));
        const std::uint64_t weights = old.session.store()->supernetHash();
        RunCheckpoint kept;
        ASSERT_TRUE(kept.load(old.session.lastCheckpoint()));
        EXPECT_EQ(kept.formatVersion, RunCheckpoint::kFormatVersion);
        Fixture again(cv, fixtureConfig);
        ASSERT_TRUE(again.session.restore(kept));
        EXPECT_EQ(again.session.store()->supernetHash(), weights);
        EXPECT_EQ(again.session.lastCheckpoint(),
                  old.session.lastCheckpoint());
    }
}

TEST(TrainingSessionCore, AdmissibleAgreesWithPumpOne)
{
    // The contract the serve scheduler leans on: admissible() is
    // true exactly when pump(1) would inject. Walked across a run
    // that exercises every gate (narrow window, lag, checkpoints).
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(10, 2);
    c.feedbackLag = 2;
    c.ckptInterval = 3;
    Fixture f(space, c);

    SubnetId oldest = 0;
    int guard = 0;
    while (f.session.finished() < f.session.totalSubnets()) {
        ASSERT_LT(guard++, 200) << "run did not converge";
        bool could = f.session.admissible();
        int got = f.session.pump(1);
        EXPECT_EQ(could, got == 1)
            << "injected=" << f.session.injected()
            << " finished=" << f.session.finished();
        if (got == 1)
            continue;
        // Blocked: retire the oldest outstanding subnet, taking the
        // drained checkpoint when that completion is a barrier.
        ASSERT_LT(static_cast<int>(oldest), f.session.injected());
        if (f.complete(oldest++)) {
            RunCheckpoint ckpt =
                f.session.buildCheckpoint(1.0, 0.5);
            f.session.commitCheckpoint(ckpt);
        }
    }
    EXPECT_EQ(f.session.finished(), 10);
    EXPECT_FALSE(f.session.admissible());
}

/** Every score a session delivered, as (ID, score), in order. */
using Deliveries = std::vector<std::pair<SubnetId, double>>;

/** A uniform sampler that logs the scores delivered to it. */
class RecordingSampler : public UniformSampler
{
  public:
    RecordingSampler(const SearchSpace &space, std::uint64_t seed,
                     Deliveries *log)
        : UniformSampler(space, seed), _log(log)
    {
    }
    void reportScore(SubnetId id, double score) override
    {
        _log->emplace_back(id, score);
    }

  private:
    Deliveries *_log;
};

TEST(TrainingSessionCore, RestoredRunContinuesTheRecordTable)
{
    // Each subnet's (loss, completion time), by ID. Completions are
    // retired newest-in-flight first, so they arrive out of ID order
    // and out of time order, and 5 and 6 finish at the same time.
    const std::vector<std::pair<float, double>> facts = {
        {2.0f, 0.20},  {1.5f, 0.30},  {1.25f, 0.50}, {1.0f, 0.45},
        {0.9f, 0.70},  {0.8f, 0.65},  {0.85f, 0.65}, {0.7f, 0.90},
        {0.6f, 1.10},  {0.65f, 1.00}, {0.5f, 1.30},  {0.55f, 1.20}};
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig base = config(static_cast<int>(facts.size()), 4);
    base.numeric = false;
    base.feedbackLag = 2;
    base.ckptInterval = 4;
    auto withLog = [&](Deliveries *log) {
        RuntimeConfig c = base;
        c.samplerFactory = [log](const SearchSpace &s,
                                 std::uint64_t seed) {
            return std::make_unique<RecordingSampler>(s, seed, log);
        };
        return c;
    };
    // Runs the script to the end, committing every drained barrier;
    // returns the first checkpoint it committed.
    auto finish = [&](Fixture &f) {
        std::vector<bool> done(facts.size(), false);
        for (int i = 0; i < f.session.finished(); i++)
            done[static_cast<std::size_t>(i)] = true;
        std::optional<RunCheckpoint> first;
        while (f.session.finished() < f.session.totalSubnets()) {
            f.session.pump();
            auto id = static_cast<SubnetId>(f.session.injected() - 1);
            while (done[static_cast<std::size_t>(id)])
                id--;
            done[static_cast<std::size_t>(id)] = true;
            const auto &[loss, at] = facts[static_cast<std::size_t>(id)];
            if (f.session.recordCompletion(id, loss, at)) {
                RunCheckpoint ckpt = f.session.buildCheckpoint(at, 0.0);
                f.session.commitCheckpoint(ckpt);
                if (!first)
                    first = std::move(ckpt);
            }
        }
        return first;
    };

    Deliveries wholeLog;
    RuntimeConfig wholeConfig = withLog(&wholeLog);
    Fixture whole(space, wholeConfig);
    std::optional<RunCheckpoint> ckpt = finish(whole);
    ASSERT_TRUE(ckpt.has_value());
    ASSERT_EQ(ckpt->completed, 4u);
    RunResult want = whole.session.collect(2.0, 0.0);

    Deliveries resumedLog;
    RuntimeConfig resumedConfig = withLog(&resumedLog);
    Fixture resumed(space, resumedConfig);
    ASSERT_TRUE(resumed.session.restore(*ckpt));
    EXPECT_EQ(resumed.session.finished(), 4);
    finish(resumed);
    RunResult got = resumed.session.collect(2.0, 0.0);

    EXPECT_EQ(got.losses, want.losses);
    ASSERT_EQ(want.losses.size(), facts.size());
    for (const auto &[id, loss] : want.losses)
        EXPECT_EQ(loss, facts[static_cast<std::size_t>(id)].first);
    EXPECT_EQ(got.metrics.finalLoss, want.metrics.finalLoss);
    EXPECT_EQ(resumedLog, wholeLog);
    // Under lag 2, no draw ever waits for the last two scores.
    ASSERT_EQ(wholeLog.size(), facts.size() - 2);
    for (std::size_t i = 0; i < wholeLog.size(); i++)
        EXPECT_EQ(wholeLog[i].first, static_cast<SubnetId>(i));

    // Both curves follow completion time, ties broken by loss.
    ASSERT_EQ(got.curve.size(), want.curve.size());
    ASSERT_EQ(want.curve.size(), facts.size());
    for (std::size_t i = 0; i < want.curve.size(); i++) {
        EXPECT_EQ(got.curve[i].timeSec, want.curve[i].timeSec) << i;
        EXPECT_EQ(got.curve[i].loss, want.curve[i].loss) << i;
        EXPECT_EQ(got.curve[i].score, want.curve[i].score) << i;
        if (i > 0) {
            EXPECT_LE(want.curve[i - 1].timeSec,
                      want.curve[i].timeSec);
        }
    }
    // Subnet 1 completed first, but subnet 0 at an earlier time.
    EXPECT_DOUBLE_EQ(want.curve[0].loss, 2.0);
    EXPECT_DOUBLE_EQ(want.curve[1].loss, (2.0 + 1.5) / 2);
}

} // namespace
} // namespace naspipe
