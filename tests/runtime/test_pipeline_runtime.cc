/**
 * @file
 * Pipeline runtime tests: the end-to-end simulated training loop.
 */

#include <gtest/gtest.h>

#include "core/engine.h"
#include "runtime/pipeline_runtime.h"
#include "supernet/search_space.h"

namespace naspipe {
namespace {

RuntimeConfig
smallConfig(const SystemModel &system, int gpus, int subnets)
{
    RuntimeConfig config;
    config.system = system;
    config.numStages = gpus;
    config.totalSubnets = subnets;
    config.seed = 11;
    config.traceEnabled = true;
    return config;
}

TEST(PipelineRuntime, NaspipeCompletesAllSubnets)
{
    SearchSpace space("small", SpaceFamily::Nlp, 8, 6, 3);
    RunResult result =
        runTraining(space, smallConfig(naspipeSystem(), 4, 12));
    ASSERT_FALSE(result.oom);
    EXPECT_EQ(result.metrics.finishedSubnets, 12);
    EXPECT_EQ(result.losses.size(), 12u);
    EXPECT_GT(result.metrics.samplesPerSec, 0.0);
    EXPECT_GT(result.metrics.simSeconds, 0.0);
}

TEST(PipelineRuntime, AllSystemsComplete)
{
    SearchSpace space("small", SpaceFamily::Nlp, 8, 6, 3);
    for (const SystemModel &system :
         {naspipeSystem(), gpipeSystem(), pipedreamSystem(),
          vpipeSystem()}) {
        RunResult result =
            runTraining(space, smallConfig(system, 4, 12));
        ASSERT_FALSE(result.oom) << system.name;
        EXPECT_EQ(result.metrics.finishedSubnets, 12)
            << system.name;
    }
}

TEST(PipelineRuntime, CspPreservesSequentialEquivalence)
{
    SearchSpace space("small", SpaceFamily::Nlp, 8, 3, 3);
    RunResult result =
        runTraining(space, smallConfig(naspipeSystem(), 4, 16));
    ASSERT_FALSE(result.oom);
    // Every layer's access history must look like sequential
    // training: R/W pairs in ascending subnet order.
    EXPECT_EQ(result.metrics.causalViolations, 0);
    EXPECT_TRUE(result.store->accessLog().allSequentiallyEquivalent());
}

TEST(PipelineRuntime, CspMatchesSequentialExecutionBitwise)
{
    // Train pipelined CSP, then replay the same subnets purely
    // sequentially on a fresh store: final weights must be bitwise
    // identical (Definition 1's ground truth).
    SearchSpace space("small", SpaceFamily::Nlp, 8, 3, 3);
    RunResult pipelined =
        runTraining(space, smallConfig(naspipeSystem(), 4, 16));
    ASSERT_FALSE(pipelined.oom);

    ParameterStore store(space, 11);
    NumericExecutor::Config ec;
    ec.dataSeed = deriveSeed(11, "data");
    ec.batch = pipelined.metrics.batch;
    NumericExecutor exec(store, ec);
    for (const Subnet &sn : pipelined.sampled)
        exec.trainSequential(sn);
    EXPECT_EQ(pipelined.supernetHash, store.supernetHash());
}

TEST(PipelineRuntime, BspViolatesDependenciesInLargeBulks)
{
    // With a tiny choice count, consecutive subnets share layers
    // almost surely; BSP's in-bulk parallelism must produce
    // non-sequential access histories.
    SearchSpace space("small", SpaceFamily::Nlp, 8, 2, 3);
    RunResult result =
        runTraining(space, smallConfig(gpipeSystem(), 4, 16));
    ASSERT_FALSE(result.oom);
    EXPECT_GT(result.metrics.causalViolations, 0);
}

TEST(PipelineRuntime, GateHoldsALongRunAcrossARollback)
{
    // The write-visibility check is the commit gate: a long CSP run
    // commits every write in rank order (the gate aborts otherwise),
    // before and after a rollback that rebuilds the gate and restores
    // a prefix without registering it. The gate drops each layer's
    // committed prefix at registration, so it retains no more
    // activators per layer than there are subnets in flight;
    // CommitGateProperties.RetainedActivatorsStayBoundedByTheWindow
    // holds that bound.
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig config = smallConfig(naspipeSystem(), 4, 2048);
    config.traceEnabled = false;
    config.numeric = false;
    config.ckptInterval = 512;
    FaultSpec crash;
    crash.atStep = 1300;
    crash.stage = 1;
    config.faults = {crash};
    PipelineRuntime runtime(space, config);
    RunResult result = runtime.run();
    ASSERT_FALSE(result.oom);
    ASSERT_FALSE(result.failed) << result.error;
    EXPECT_EQ(result.metrics.finishedSubnets, 2048);
    EXPECT_EQ(result.metrics.recoveries, 1);
}

TEST(PipelineRuntime, TraceRecordsAllTasks)
{
    SearchSpace space("small", SpaceFamily::Nlp, 8, 6, 3);
    RunResult result =
        runTraining(space, smallConfig(naspipeSystem(), 4, 8));
    ASSERT_FALSE(result.oom);
    auto fwd = result.trace->byKind(TraceKind::Forward);
    auto bwd = result.trace->byKind(TraceKind::Backward);
    // 8 subnets x 4 stages, one forward and one backward each.
    EXPECT_EQ(fwd.size(), 32u);
    EXPECT_EQ(bwd.size(), 32u);
}

TEST(PipelineRuntime, SingleGpuDegeneratesToSequential)
{
    SearchSpace space("small", SpaceFamily::Nlp, 8, 6, 3);
    RunResult result =
        runTraining(space, smallConfig(naspipeSystem(), 1, 6));
    ASSERT_FALSE(result.oom);
    EXPECT_EQ(result.metrics.finishedSubnets, 6);
    EXPECT_EQ(result.metrics.causalViolations, 0);
}

TEST(PipelineRuntime, EngineFacadeRuns)
{
    SearchSpace space("small", SpaceFamily::Nlp, 8, 6, 3);
    Engine::Options options;
    options.gpus = 4;
    options.steps = 8;
    Engine engine(space, options);
    RunResult result = engine.train();
    ASSERT_FALSE(result.oom);
    EXPECT_EQ(result.metrics.finishedSubnets, 8);
}

} // namespace
} // namespace naspipe
