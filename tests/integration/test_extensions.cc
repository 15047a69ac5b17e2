/**
 * @file
 * Integration tests for the library extensions: hybrid traversal,
 * the SSP spectrum, cache budgets and checkpointing through the full
 * runtime.
 */

#include <gtest/gtest.h>


#include "core/engine.h"
#include "schedule/ssp_scheduler.h"
#include "train/convergence.h"

namespace naspipe {
namespace {

TEST(Extensions, HybridTraversalReducesDependencyStalls)
{
    SearchSpace space("hyb", SpaceFamily::Nlp, 24, 6, 3, 0.3);
    auto runWith = [&space](int streams) {
        RuntimeConfig config;
        config.system = naspipeSystem();
        config.numStages = 4;
        config.totalSubnets = 48;
        config.seed = 7;
        config.batch = 16;
        config.hybridStreams = streams;
        return runTraining(space, config);
    };
    RunResult single = runWith(1);
    RunResult hybrid = runWith(4);
    ASSERT_FALSE(single.oom);
    ASSERT_FALSE(hybrid.oom);
    // Streams don't collide: the pipeline fills better.
    EXPECT_LT(hybrid.metrics.bubbleRatio,
              single.metrics.bubbleRatio);
    // And CSP correctness is untouched.
    EXPECT_EQ(hybrid.metrics.causalViolations, 0);
}

TEST(Extensions, HybridTraversalReproducibleAcrossGpuCounts)
{
    SearchSpace space("hyb", SpaceFamily::Nlp, 24, 6, 3, 0.3);
    auto runWith = [&space](int gpus) {
        RuntimeConfig config;
        config.system = naspipeSystem();
        config.numStages = gpus;
        config.totalSubnets = 24;
        config.seed = 7;
        config.batch = 16;
        config.hybridStreams = 3;
        return runTraining(space, config);
    };
    RunResult a = runWith(2);
    RunResult b = runWith(6);
    ASSERT_FALSE(a.oom);
    ASSERT_FALSE(b.oom);
    EXPECT_EQ(a.supernetHash, b.supernetHash);
    EXPECT_EQ(a.losses, b.losses);
}

TEST(Extensions, SspThroughputMonotoneInStaleness)
{
    SearchSpace space("ssp", SpaceFamily::Nlp, 16, 4, 5);
    auto throughput = [&space](const SystemModel &system) {
        RuntimeConfig config;
        config.system = system;
        config.numStages = 4;
        config.totalSubnets = 48;
        config.seed = 7;
        config.batch = 16;
        RunResult r = runTraining(space, config);
        EXPECT_FALSE(r.oom);
        return r.metrics.samplesPerSec;
    };
    double csp = throughput(naspipeSystem());
    double s2 = throughput(sspSystem(2));
    double s8 = throughput(sspSystem(8));
    EXPECT_GE(s2, csp * 0.99);
    EXPECT_GE(s8, s2 * 0.99);
    EXPECT_GT(s8, csp);
}

TEST(Extensions, SspIntroducesViolations)
{
    SearchSpace space("ssp", SpaceFamily::Nlp, 8, 2, 5);
    RuntimeConfig config;
    config.system = sspSystem(4);
    config.numStages = 4;
    config.totalSubnets = 32;
    config.seed = 7;
    RunResult r = runTraining(space, config);
    ASSERT_FALSE(r.oom);
    EXPECT_GT(r.metrics.causalViolations, 0);
}

TEST(Extensions, StallDiagnosticsAccountForIdleDispatch)
{
    // A dependency-dense space on CSP must record dependency stalls;
    // the greedy baseline on the same space records none.
    SearchSpace space("dense", SpaceFamily::Nlp, 8, 2, 3);
    RuntimeConfig config;
    config.system = naspipeSystem();
    config.numStages = 4;
    config.totalSubnets = 24;
    config.seed = 7;
    RunResult csp = runTraining(space, config);
    ASSERT_FALSE(csp.oom);
    EXPECT_GT(csp.metrics.stallDependency, 0u);

    config.system = vpipeSystem();
    RunResult greedy = runTraining(space, config);
    ASSERT_FALSE(greedy.oom);
    EXPECT_EQ(greedy.metrics.stallDependency, 0u);
}

TEST(Extensions, CheckpointFromRunRestoresSearchResult)
{
    SearchSpace space("ckpt", SpaceFamily::Cv, 8, 4, 5, 0.3);
    RuntimeConfig config;
    config.system = naspipeSystem();
    config.numStages = 4;
    config.totalSubnets = 24;
    config.seed = 9;
    RunResult run = runTraining(space, config);
    ASSERT_FALSE(run.oom);

    ParameterStore restored(space, 9);
    ASSERT_TRUE(restored.load(run.store->serialize()));
    EXPECT_EQ(restored.supernetHash(), run.supernetHash);

    NumericExecutor::Config ec;
    ec.dataSeed = deriveSeed(9, "data");
    ec.batch = run.metrics.batch;
    NumericExecutor evaluator(restored, ec);
    SearchResult search = searchBestSubnet(
        evaluator, run.sampled, 90.0, deriveSeed(9, "search"));
    EXPECT_EQ(search.best.id(), run.bestSubnet);
}

TEST(Extensions, TraceExportsFromRealRun)
{
    SearchSpace space = makeTinySpace();
    RuntimeConfig config;
    config.system = naspipeSystem();
    config.numStages = 2;
    config.totalSubnets = 4;
    config.seed = 7;
    config.traceEnabled = true;
    RunResult r = runTraining(space, config);
    ASSERT_FALSE(r.oom);
    std::string json = r.trace->exportChromeJson();
    EXPECT_NE(json.find("fwd SN0"), std::string::npos);
    EXPECT_NE(json.find("bwd SN3"), std::string::npos);
}

TEST(Extensions, BusyTimeConservation)
{
    // The trace's task durations must add up to the engines' busy
    // time: nothing executes off the books.
    SearchSpace space = makeTinySpace();
    RuntimeConfig config;
    config.system = naspipeSystem();
    config.numStages = 2;
    config.totalSubnets = 8;
    config.seed = 7;
    config.traceEnabled = true;
    RunResult r = runTraining(space, config);
    ASSERT_FALSE(r.oom);

    double traceBusy = 0.0;
    for (const auto &rec : r.trace->taskTimeline())
        traceBusy += ticksToSec(rec.end - rec.start);
    double execBusy = 0.0;
    for (const auto &[id, loss] : r.losses) {
        (void)loss;
        execBusy += 0.0;  // per-subnet busy not exposed; use metric
    }
    EXPECT_NEAR(traceBusy,
                r.metrics.meanExecSeconds * r.metrics.finishedSubnets,
                1e-6);
}

} // namespace
} // namespace naspipe
