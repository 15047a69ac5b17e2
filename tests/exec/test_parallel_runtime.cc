/**
 * @file
 * Threaded executor unit tests: support matrix, metrics surface,
 * small end-to-end runs on threads, and the single-job service
 * contract they run on.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "exec/parallel_runtime.h"
#include "schedule/scheduler.h"
#include "serve/service.h"

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

TEST(ParallelRuntime, SupportsCspOnly)
{
    std::string why;
    EXPECT_TRUE(ParallelRuntime::supported(config(4, 8), &why)) << why;
    EXPECT_TRUE(
        ParallelRuntime::supported([&] {
            RuntimeConfig c = config(4, 8);
            c.system = naspipeWithoutPredictor();
            return c;
        }()));

    RuntimeConfig bsp = config(4, 8);
    bsp.system = gpipeSystem();
    EXPECT_FALSE(ParallelRuntime::supported(bsp, &why));
    EXPECT_FALSE(why.empty());

    RuntimeConfig asp = config(4, 8);
    asp.system = pipedreamSystem();
    EXPECT_FALSE(ParallelRuntime::supported(asp));
}

TEST(ParallelRuntime, SupportsFaultInjection)
{
    // Fault injection went executor-agnostic with the supervision
    // layer: a fault plan is no longer a reason to reject threads.
    std::string why;
    RuntimeConfig faulty = config(4, 8);
    faulty.faults.push_back(FaultSpec{});
    EXPECT_TRUE(ParallelRuntime::supported(faulty, &why)) << why;
}

TEST(ParallelRuntime, RejectionReasonsNameTheFeature)
{
    // The reason strings are a user-facing contract: the CLI embeds
    // them verbatim in its exit-2 diagnostics.
    std::string why;

    RuntimeConfig bsp = config(4, 8);
    bsp.system = gpipeSystem();
    EXPECT_FALSE(ParallelRuntime::supported(bsp, &why));
    EXPECT_EQ(why,
              "threaded executor requires a CSP system: BSP/ASP "
              "weights depend on the interleaving, which real "
              "threads cannot replay");

    RuntimeConfig stash = config(4, 8);
    stash.system = naspipeSystem();
    stash.system.weightStash = true;
    EXPECT_FALSE(ParallelRuntime::supported(stash, &why));
    EXPECT_EQ(why, "weight stashing is simulator-only");

    RuntimeConfig flush = config(4, 8);
    flush.system = naspipeSystem();
    flush.system.bulkFlush = true;
    EXPECT_FALSE(ParallelRuntime::supported(flush, &why));
    EXPECT_EQ(why, "bulk-flush (BSP) systems are simulator-only");
}

TEST(ParallelRuntime, SupportsCheckpointAndResume)
{
    // Drained-barrier checkpoints are executor-agnostic: the session
    // layer gives the threaded executor the same ckpt/resume path the
    // simulator has.
    std::string why;
    RuntimeConfig ckpt = config(4, 8);
    ckpt.ckptInterval = 4;
    EXPECT_TRUE(ParallelRuntime::supported(ckpt, &why)) << why;

    RuntimeConfig resume = config(4, 8);
    resume.resumePath = "/tmp/nonexistent.ckpt";
    EXPECT_TRUE(ParallelRuntime::supported(resume, &why)) << why;
}

TEST(ParallelRuntime, UnsupportedConfigFailsInsteadOfRunning)
{
    RuntimeConfig bsp = config(2, 4);
    bsp.system = gpipeSystem();
    SearchSpace space("exec-bsp", SpaceFamily::Nlp, 8, 4, 3);
    RunResult result = runTrainingThreaded(space, bsp);
    EXPECT_TRUE(result.failed);
    EXPECT_FALSE(result.error.empty());
}

TEST(ParallelRuntime, SmallRunCompletesWithSaneMetrics)
{
    SearchSpace space("exec-small", SpaceFamily::Nlp, 10, 4, 4);
    RunResult result = runTrainingThreaded(space, config(3, 16));
    ASSERT_FALSE(result.failed) << result.error;
    ASSERT_FALSE(result.oom);

    const RunMetrics &m = result.metrics;
    EXPECT_EQ(m.finishedSubnets, 16);
    EXPECT_EQ(m.execWorkers, 3);
    EXPECT_GT(m.wallSeconds, 0.0);
    EXPECT_EQ(m.simSeconds, m.wallSeconds);
    EXPECT_GT(m.samplesPerSec, 0.0);
    EXPECT_GT(m.gateCommits, 0u);
    ASSERT_EQ(m.perStageBusySec.size(), 3u);
    ASSERT_EQ(m.perStageGateWaitSec.size(), 3u);
    ASSERT_EQ(m.perStageIdleSec.size(), 3u);
    EXPECT_EQ(m.causalViolations, 0);
    EXPECT_NE(m.supernetHash, 0u);

    ASSERT_EQ(result.sampled.size(), 16u);
    for (std::size_t i = 0; i < result.sampled.size(); i++)
        EXPECT_EQ(result.sampled[i].id(), static_cast<SubnetId>(i));
    EXPECT_EQ(result.losses.size(), 16u);
    EXPECT_GE(result.bestSubnet, 0);
    EXPECT_NE(m.summary().find("threads 3"), std::string::npos);
}

TEST(ParallelRuntime, SingleWorkerDegeneratesToSequential)
{
    SearchSpace space("exec-one", SpaceFamily::Nlp, 8, 4, 3);
    RunResult result = runTrainingThreaded(space, config(1, 8));
    ASSERT_FALSE(result.failed) << result.error;
    EXPECT_EQ(result.metrics.execWorkers, 1);
    EXPECT_EQ(result.metrics.causalViolations, 0);
    EXPECT_EQ(result.metrics.finishedSubnets, 8);
}

TEST(ParallelRuntime, TraceRecordsBothPassKinds)
{
    SearchSpace space("exec-trace", SpaceFamily::Nlp, 8, 4, 3);
    RuntimeConfig c = config(2, 6);
    c.traceEnabled = true;
    RunResult result = runTrainingThreaded(space, c);
    ASSERT_FALSE(result.failed) << result.error;
    ASSERT_TRUE(result.trace);
    bool fwd = false, bwd = false;
    for (const TraceRecord &rec : result.trace->records()) {
        fwd = fwd || rec.kind == TraceKind::Forward;
        bwd = bwd || rec.kind == TraceKind::Backward;
        EXPECT_GE(rec.stage, 0);
        EXPECT_LT(rec.stage, 2);
    }
    EXPECT_TRUE(fwd);
    EXPECT_TRUE(bwd);
}

TEST(ParallelRuntime, InProcessJobMustBeAlone)
{
    SearchSpace space("exec-alone", SpaceFamily::Nlp, 8, 4, 3);
    serve::JobSpec spec;
    spec.steps = 4;
    serve::ServiceConfig sc;
    sc.numStages = 2;
    std::string why;

    // Refused once the service holds a job...
    serve::SearchService holding(sc);
    ASSERT_GT(holding.submit(spec, &why), 0) << why;
    EXPECT_EQ(holding.submitInProcess(space, config(2, 4), &why), -1);
    EXPECT_NE(why.find("only job"), std::string::npos) << why;

    // ...and once accepted, nothing else gets in.
    serve::SearchService solo(sc);
    int id = solo.submitInProcess(space, config(2, 6), &why);
    ASSERT_GT(id, 0) << why;
    why.clear();
    EXPECT_EQ(solo.submit(spec, &why), -1);
    EXPECT_NE(why.find("in-process"), std::string::npos) << why;
    EXPECT_TRUE(solo.submitBatch({spec}, &why).empty());
    EXPECT_EQ(solo.submitInProcess(space, config(2, 6), &why), -1);
    EXPECT_EQ(solo.run(), serve::SearchService::AllDone);
    EXPECT_EQ(solo.status().size(), 1u);
    RunResult result = solo.takeResult(id);
    ASSERT_FALSE(result.failed) << result.error;
    EXPECT_EQ(result.supernetHash,
              runTrainingThreaded(space, config(2, 6)).supernetHash);
}

TEST(ParallelRuntime, ADyingWorkerFailsTheRun)
{
    // A task that throws on a worker thread kills that worker; the
    // run fails with the stage and the exception text, and the
    // process lives on.
    SearchSpace space("exec-death", SpaceFamily::Nlp, 8, 4, 3);
    RuntimeConfig c = config(2, 64);
    c.commitObserver = [](std::uint64_t, SubnetId subnet, std::size_t,
                          int stage) {
        if (stage == 1 && subnet >= 3)
            throw std::runtime_error("observer gave up");
    };
    RunResult result = runTrainingThreaded(space, c);
    ASSERT_TRUE(result.failed);
    EXPECT_NE(result.error.find("stage 1: observer gave up"),
              std::string::npos)
        << result.error;
}

TEST(ParallelRuntime, RecoveryKeepsTraceAndWholeRunCounters)
{
    SearchSpace space("exec-recover", SpaceFamily::Nlp, 8, 4, 3);
    RuntimeConfig c = config(3, 12);
    c.traceEnabled = true;
    c.ckptInterval = 4;
    FaultSpec crash;
    crash.kind = FaultKind::GpuCrash;
    crash.atStep = 6;
    crash.stage = 1;
    c.faults.push_back(crash);
    RunResult result = runTrainingThreaded(space, c);
    ASSERT_FALSE(result.failed) << result.error;
    const RunMetrics &m = result.metrics;
    ASSERT_EQ(m.recoveries, 1);

    ASSERT_TRUE(result.trace);
    EXPECT_EQ(result.trace->byKind(TraceKind::Recovery).size(), 1u);

    // The pool served the whole run: every forward met its backward,
    // and stage 0 saw the replayed subnets on top of the run's own.
    ASSERT_EQ(m.perStageForwards.size(), 3u);
    for (std::size_t k = 0; k < 3; k++)
        EXPECT_EQ(m.perStageForwards[k], m.perStageBackwards[k]) << k;
    EXPECT_GE(m.perStageForwards[0],
              static_cast<std::uint64_t>(12 + m.subnetsReplayed));
}

} // namespace
} // namespace naspipe
