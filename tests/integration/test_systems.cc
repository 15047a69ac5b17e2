/**
 * @file
 * Cross-system behavioural integration tests: each system's
 * signature characteristics must show up in a full run.
 */

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "runtime/pipeline_runtime.h"
#include "schedule/ssp_scheduler.h"

namespace naspipe {
namespace {

RunResult
run(const SearchSpace &space, const SystemModel &system, int gpus = 4,
    int steps = 32)
{
    RuntimeConfig config;
    config.system = system;
    config.numStages = gpus;
    config.totalSubnets = steps;
    config.seed = 7;
    config.traceEnabled = true;
    return runTraining(space, config);
}

TEST(Systems, VpipeCacheHitIsLowNaspipeHigh)
{
    SearchSpace space = makeNlpC2();
    RunResult naspipe = run(space, naspipeSystem(), 8, 48);
    RunResult vpipe = run(space, vpipeSystem(), 8, 48);
    ASSERT_FALSE(naspipe.oom);
    ASSERT_FALSE(vpipe.oom);
    // Table 2: NASPipe ~86-97 %, VPipe ~1-8 %.
    ASSERT_TRUE(naspipe.metrics.cacheHitRate.has_value());
    ASSERT_TRUE(vpipe.metrics.cacheHitRate.has_value());
    EXPECT_GT(*naspipe.metrics.cacheHitRate, 0.5);
    EXPECT_LT(*vpipe.metrics.cacheHitRate, 0.25);
}

TEST(Systems, AllResidentSystemsReportNoCacheStats)
{
    SearchSpace space = makeNlpC3();
    RunResult gpipe = run(space, gpipeSystem());
    ASSERT_FALSE(gpipe.oom);
    EXPECT_FALSE(gpipe.metrics.cacheHitRate.has_value());
    EXPECT_EQ(gpipe.metrics.cpuMemBytes, 0u);
}

TEST(Systems, SwapSystemsUseCpuMemoryOfSupernetSize)
{
    SearchSpace space = makeNlpC3();
    RunResult naspipe = run(space, naspipeSystem());
    ASSERT_FALSE(naspipe.oom);
    EXPECT_EQ(naspipe.metrics.cpuMemBytes, space.totalParamBytes());
}

TEST(Systems, BspFlushesAppearInTrace)
{
    SearchSpace space = makeNlpC3();
    RunResult gpipe = run(space, gpipeSystem(), 4, 16);
    ASSERT_FALSE(gpipe.oom);
    // 16 subnets in bulks of 4 => 4 flushes.
    EXPECT_EQ(gpipe.trace->byKind(TraceKind::Flush).size(), 4u);
    RunResult naspipe = run(space, naspipeSystem(), 4, 16);
    EXPECT_TRUE(naspipe.trace->byKind(TraceKind::Flush).empty());
}

TEST(Systems, PipedreamKeepsPipelineFull)
{
    SearchSpace space = makeNlpC3();
    RunResult pipedream = run(space, pipedreamSystem(), 8, 48);
    RunResult gpipe = run(space, gpipeSystem(), 8, 48);
    ASSERT_FALSE(pipedream.oom);
    ASSERT_FALSE(gpipe.oom);
    // ASP's bubble (paper 0.1) sits below BSP's (paper 0.57).
    EXPECT_LT(pipedream.metrics.bubbleRatio,
              gpipe.metrics.bubbleRatio);
}

TEST(Systems, CspBubbleShrinksWithSpaceSize)
{
    // §5.1: "with the growth of search space size, the bubble time
    // ratio of NASPipe decreases".
    SearchSpace big = makeNlpC1();
    SearchSpace small = makeNlpC3();
    RunResult bigRun = run(big, naspipeSystem(), 8, 48);
    RunResult smallRun = run(small, naspipeSystem(), 8, 48);
    ASSERT_FALSE(bigRun.oom);
    ASSERT_FALSE(smallRun.oom);
    EXPECT_LT(bigRun.metrics.bubbleRatio,
              smallRun.metrics.bubbleRatio);
}

TEST(Systems, NaspipeBeatsBaselinesOnLargestSpace)
{
    // NLP.c0: GPipe/PipeDream OOM; NASPipe outruns VPipe (§5.1).
    SearchSpace space = makeNlpC0();
    RunResult naspipe = run(space, naspipeSystem(), 8, 32);
    RunResult gpipe = run(space, gpipeSystem(), 8, 32);
    RunResult vpipe = run(space, vpipeSystem(), 8, 32);
    ASSERT_FALSE(naspipe.oom);
    EXPECT_TRUE(gpipe.oom);
    ASSERT_FALSE(vpipe.oom);
    EXPECT_GT(naspipe.metrics.samplesPerSec,
              vpipe.metrics.samplesPerSec);
}

TEST(Systems, ViolationCountsOnlyForNonCsp)
{
    SearchSpace space("dense", SpaceFamily::Nlp, 8, 2, 3);
    RunResult naspipe = run(space, naspipeSystem(), 4, 24);
    RunResult gpipe = run(space, gpipeSystem(), 4, 24);
    RunResult pipedream = run(space, pipedreamSystem(), 4, 24);
    EXPECT_EQ(naspipe.metrics.causalViolations, 0);
    EXPECT_GT(gpipe.metrics.causalViolations, 0);
    EXPECT_GT(pipedream.metrics.causalViolations, 0);
}

TEST(Systems, StreamedVerdictEqualsHistoryVerdictForEverySystem)
{
    // The run's violation count comes from the per-layer cursors; on
    // every system it must equal the count the full history gives.
    SearchSpace space("dense", SpaceFamily::Nlp, 8, 2, 3);
    const SystemModel systems[] = {naspipeSystem(), gpipeSystem(),
                                   pipedreamSystem(), vpipeSystem(),
                                   sspSystem(2)};
    for (const SystemModel &system : systems) {
        SCOPED_TRACE(system.name);
        RuntimeConfig config;
        config.system = system;
        config.numStages = 4;
        config.totalSubnets = 24;
        config.seed = 7;
        config.accessHistory = true;
        RunResult r = runTraining(space, config);
        ASSERT_FALSE(r.oom);
        const AccessLog &log = r.store->accessLog();
        int historyViolations = 0;
        for (const LayerId &layer : log.touchedLayers()) {
            bool clean = sequentiallyEquivalent(log.layerHistory(layer));
            EXPECT_EQ(log.sequentiallyEquivalent(layer), clean)
                << log.renderOrder(layer);
            historyViolations += clean ? 0 : 1;
        }
        EXPECT_EQ(r.metrics.causalViolations, historyViolations);
    }
}

TEST(Systems, MirrorTrafficOnlyWithMirroring)
{
    SearchSpace space = makeNlpC3();
    RunResult naspipe = run(space, naspipeSystem(), 4, 24);
    RunResult noMirror = run(space, naspipeWithoutMirroring(), 4, 24);
    ASSERT_FALSE(naspipe.oom);
    EXPECT_GT(naspipe.metrics.mirrorsCreated, 0u);
    EXPECT_EQ(noMirror.metrics.mirrorSyncBytes, 0u);
}

TEST(Systems, WithoutPredictorSupportsSmallerBatch)
{
    SearchSpace space = makeNlpC2();
    RunResult full = run(space, naspipeSystem(), 8, 16);
    RunResult noPred = run(space, naspipeWithoutPredictor(), 8, 16);
    ASSERT_FALSE(full.oom);
    ASSERT_FALSE(noPred.oom);
    EXPECT_GT(full.metrics.batch, noPred.metrics.batch);
}

TEST(Systems, ExecTimeLongerForBiggerBatches)
{
    SearchSpace space = makeNlpC2();
    RunResult naspipe = run(space, naspipeSystem(), 8, 24);
    RunResult pipedream = run(space, pipedreamSystem(), 8, 24);
    ASSERT_FALSE(naspipe.oom);
    ASSERT_FALSE(pipedream.oom);
    // Table 2: NASPipe's per-subnet exec (big batch) exceeds
    // PipeDream's (small batch).
    EXPECT_GT(naspipe.metrics.meanExecSeconds,
              pipedream.metrics.meanExecSeconds);
}

} // namespace
} // namespace naspipe
