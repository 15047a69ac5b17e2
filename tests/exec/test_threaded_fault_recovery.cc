/**
 * @file
 * Threaded-executor fault tolerance (the supervision layer's
 * acceptance test).
 *
 * A threaded run that loses a stage worker to a fail-stop fault must
 * recover automatically — watchdog detection, rollback to the last
 * drained checkpoint, in-place respawn, CSP-order replay — and finish
 * with weights bitwise identical to a fault-free run. Checked on the
 * paper spaces NLP.c1 and CV.c1 across 2/4/8 workers, under the live
 * CspOracle, and against the simulator driving the *same* fault plan
 * (one seeded plan, one event sequence, both executors).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "exec/parallel_runtime.h"
#include "fault/fault_plan.h"
#include "verify/csp_oracle.h"

namespace naspipe {
namespace {

RuntimeConfig
config(int stages, int steps)
{
    RuntimeConfig c;
    c.system = naspipeSystem();
    c.numStages = stages;
    c.totalSubnets = steps;
    c.seed = 7;
    return c;
}

FaultSpec
crashAt(int step, int stage)
{
    FaultSpec f;
    f.kind = FaultKind::GpuCrash;
    f.atStep = step;
    f.stage = stage;
    return f;
}

/** Threaded run under the full CSP audit (live + post-hoc). */
RunResult
runAudited(const SearchSpace &space, RuntimeConfig c)
{
    CspOracle oracle;
    c.commitObserver = [&oracle](std::uint64_t layerKey,
                                 SubnetId subnet, std::size_t rank,
                                 int stage) {
        oracle.observeCommit(layerKey, subnet, rank, stage);
    };
    c.recoveryObserver = [&oracle](int) { oracle.resetLiveChains(); };
    c.accessHistory = true;  // the post-hoc audit replays it
    RunResult result = runTrainingThreaded(space, c);
    EXPECT_FALSE(result.failed) << result.error;
    EXPECT_FALSE(result.oom);
    if (result.failed || !result.store)
        return result;
    EXPECT_TRUE(oracle.auditLog(result.store->accessLog()))
        << oracle.report();
    EXPECT_TRUE(oracle.ok()) << oracle.report();
    return result;
}

TEST(ThreadedFaultRecovery, CrashRecoversBitwiseOnPaperSpaces)
{
    // The acceptance matrix: NLP.c1 and CV.c1 x 2/4/8 workers, crash
    // mid-run, recovered weights == fault-free weights, CSP-clean.
    constexpr int kSteps = 16;
    for (const char *spaceName : {"NLP.c1", "CV.c1"}) {
        SearchSpace space = makeSpaceByName(spaceName);
        for (int workers : {2, 4, 8}) {
            RuntimeConfig clean = config(workers, kSteps);
            RunResult faultFree = runAudited(space, clean);

            RuntimeConfig faulty = clean;
            faulty.ckptInterval = 4;
            faulty.faults.push_back(crashAt(9, workers / 2));
            RunResult recovered = runAudited(space, faulty);

            EXPECT_EQ(recovered.supernetHash, faultFree.supernetHash)
                << spaceName << " x " << workers << " workers";
            EXPECT_EQ(recovered.losses, faultFree.losses);
            EXPECT_EQ(recovered.bestSubnet, faultFree.bestSubnet);
            EXPECT_EQ(recovered.metrics.faultsInjected, 1);
            EXPECT_EQ(recovered.metrics.recoveries, 1);
            // Rollback target is the barrier at 8: exactly one
            // subnet (SN9's completion slot) replays. Deterministic
            // because stragglers are dropped while the world is
            // frozen.
            EXPECT_EQ(recovered.metrics.subnetsReplayed, 1);
            EXPECT_GT(recovered.metrics.recoverySeconds, 0.0);
        }
    }
}

TEST(ThreadedFaultRecovery, SameSeededPlanOnBothExecutors)
{
    // One seeded plan, one event sequence, either backend: the
    // fired-fault counters and the trained weights agree bitwise
    // between the simulator and the threaded executor.
    SearchSpace space = makeSpaceByName("CV.c1");
    std::vector<FaultSpec> plan =
        FaultInjector::randomPlan(21, 3, 14, 2);
    ASSERT_FALSE(plan.empty());

    RuntimeConfig c = config(2, 16);
    c.ckptInterval = 4;
    c.faults = plan;

    RunResult sim = runTraining(space, c);
    ASSERT_FALSE(sim.failed) << sim.error;
    RunResult threads = runAudited(space, c);

    EXPECT_EQ(threads.supernetHash, sim.supernetHash);
    EXPECT_EQ(threads.losses, sim.losses);
    EXPECT_EQ(threads.metrics.faultsInjected,
              sim.metrics.faultsInjected);
    EXPECT_EQ(threads.metrics.recoveries, sim.metrics.recoveries);
    EXPECT_EQ(threads.metrics.subnetsReplayed,
              sim.metrics.subnetsReplayed);
}

TEST(ThreadedFaultRecovery, NoCheckpointRestartsFromZero)
{
    SearchSpace space("tfr-zero", SpaceFamily::Nlp, 12, 4, 5);
    RuntimeConfig clean = config(2, 12);
    clean.batch = 16;
    RunResult faultFree = runAudited(space, clean);

    RuntimeConfig faulty = clean;
    faulty.faults.push_back(crashAt(6, 1));
    RunResult recovered = runAudited(space, faulty);

    EXPECT_EQ(recovered.supernetHash, faultFree.supernetHash);
    EXPECT_EQ(recovered.metrics.recoveries, 1);
    // No checkpoint ever drained: the rollback target is subnet 0.
    EXPECT_EQ(recovered.metrics.subnetsReplayed, 6);
    EXPECT_EQ(recovered.metrics.checkpointsWritten, 0);
}

TEST(ThreadedFaultRecovery, TransientFaultsNeedNoRecovery)
{
    SearchSpace space("tfr-transient", SpaceFamily::Nlp, 12, 4, 5);
    RuntimeConfig clean = config(2, 12);
    clean.batch = 16;
    RunResult faultFree = runAudited(space, clean);

    RuntimeConfig faulty = clean;
    FaultSpec stall;
    stall.kind = FaultKind::StageStall;
    stall.atStep = 4;
    stall.stage = 1;
    stall.durationMs = 5.0;
    FaultSpec degrade;
    degrade.kind = FaultKind::LinkDegrade;
    degrade.atStep = 7;
    degrade.stage = 0;
    degrade.durationMs = 5.0;
    faulty.faults = {stall, degrade};
    RunResult perturbed = runAudited(space, faulty);

    // Stall and degrade only stretch wall time; CSP order — hence
    // the weights — is untouched, and nothing rolls back.
    EXPECT_EQ(perturbed.supernetHash, faultFree.supernetHash);
    EXPECT_EQ(perturbed.metrics.faultsInjected, 2);
    EXPECT_EQ(perturbed.metrics.recoveries, 0);
    EXPECT_EQ(perturbed.metrics.subnetsReplayed, 0);
}

TEST(ThreadedFaultRecovery, SurvivesMultipleFailStops)
{
    SearchSpace space("tfr-multi", SpaceFamily::Nlp, 12, 4, 5);
    RuntimeConfig clean = config(3, 14);
    clean.batch = 16;
    RunResult faultFree = runAudited(space, clean);

    RuntimeConfig faulty = clean;
    faulty.ckptInterval = 3;
    faulty.faults.push_back(crashAt(5, 0));
    FaultSpec drop;
    drop.kind = FaultKind::LinkDrop;
    drop.atStep = 10;
    drop.stage = 1;
    faulty.faults.push_back(drop);
    RunResult recovered = runAudited(space, faulty);

    EXPECT_EQ(recovered.supernetHash, faultFree.supernetHash);
    EXPECT_EQ(recovered.metrics.faultsInjected, 2);
    EXPECT_EQ(recovered.metrics.recoveries, 2);
}

TEST(ThreadedFaultRecovery, RetriesExhaustedFailsTheRun)
{
    SearchSpace space("tfr-exhaust", SpaceFamily::Nlp, 12, 4, 5);
    RuntimeConfig c = config(2, 12);
    c.batch = 16;
    c.ckptInterval = 4;
    c.recoveryMaxRetries = 0;  // refuse the first retry
    c.faults.push_back(crashAt(6, 1));
    RunResult result = runTrainingThreaded(space, c);
    EXPECT_TRUE(result.failed);
    EXPECT_TRUE(result.retriesExhausted);
    EXPECT_NE(result.error.find("retries exhausted"),
              std::string::npos)
        << result.error;
}

TEST(ThreadedFaultRecovery, EvolutionSamplerSurvivesRecovery)
{
    // Feedback-driven sampling replays deterministically too: the
    // evolution sampler's view is a pure function of (seed,
    // losses-by-ID), which the checkpoint restores.
    SearchSpace space = makeSpaceByName("CV.c1");
    RuntimeConfig clean = config(2, 16);
    clean.evolutionSearch = true;
    RunResult faultFree = runAudited(space, clean);

    RuntimeConfig faulty = clean;
    faulty.ckptInterval = 4;
    faulty.faults.push_back(crashAt(10, 1));
    RunResult recovered = runAudited(space, faulty);

    EXPECT_EQ(recovered.supernetHash, faultFree.supernetHash);
    EXPECT_EQ(recovered.losses, faultFree.losses);
    EXPECT_EQ(recovered.metrics.recoveries, 1);
}

} // namespace
} // namespace naspipe
