/**
 * @file
 * Property sweeps over the CSP scheduler: for any seed, space shape
 * and GPU count, CSP executions must be sequentially equivalent and
 * bitwise equal to pure sequential training.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "runtime/pipeline_runtime.h"
#include "supernet/search_space.h"

namespace naspipe {
namespace {

/// (seed, numBlocks, choicesPerBlock, gpus, skipMass)
using CspCase = std::tuple<std::uint64_t, int, int, int, double>;

class CspProperty : public ::testing::TestWithParam<CspCase>
{
};

TEST_P(CspProperty, SequentialEquivalenceAndBitwiseMatch)
{
    auto [seed, blocks, choices, gpus, skip] = GetParam();
    SearchSpace space("prop", SpaceFamily::Nlp, blocks, choices,
                      seed, skip);

    RuntimeConfig config;
    config.system = naspipeSystem();
    config.numStages = gpus;
    config.totalSubnets = 20;
    config.seed = seed;
    RunResult pipelined = runTraining(space, config);
    ASSERT_FALSE(pipelined.oom);
    ASSERT_EQ(pipelined.metrics.finishedSubnets, 20);

    // Property 1: every layer's access history is R/W pairs in
    // ascending subnet order.
    EXPECT_EQ(pipelined.metrics.causalViolations, 0);
    EXPECT_TRUE(
        pipelined.store->accessLog().allSequentiallyEquivalent());

    // Property 2: the final weights equal sequential training's,
    // bitwise.
    ParameterStore reference(space, seed);
    NumericExecutor::Config ec;
    ec.dataSeed = deriveSeed(seed, "data");
    ec.batch = pipelined.metrics.batch;
    NumericExecutor exec(reference, ec);
    std::vector<float> sequentialLosses;
    for (const Subnet &sn : pipelined.sampled)
        sequentialLosses.push_back(exec.trainSequential(sn));
    EXPECT_EQ(pipelined.supernetHash, reference.supernetHash());

    // Property 3: per-subnet losses match sequential training's.
    for (std::size_t i = 0; i < pipelined.sampled.size(); i++) {
        EXPECT_EQ(pipelined.losses.at(pipelined.sampled[i].id()),
                  sequentialLosses[i])
            << "subnet " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CspProperty,
    ::testing::Values(
        // Dense sharing, shallow pipelines.
        CspCase{1, 6, 2, 2, 0.0}, CspCase{2, 6, 2, 3, 0.0},
        // The pathological case: every subnet identical.
        CspCase{3, 4, 1, 2, 0.0},
        // Moderate spaces across GPU counts.
        CspCase{4, 12, 4, 2, 0.0}, CspCase{5, 12, 4, 4, 0.0},
        CspCase{6, 12, 4, 8, 0.0}, CspCase{7, 16, 6, 4, 0.0},
        // Skip-heavy (variable-depth) spaces.
        CspCase{8, 12, 4, 4, 0.4}, CspCase{9, 16, 6, 8, 0.5},
        CspCase{10, 8, 3, 4, 0.25},
        // More stages than blocks (empty stage ranges).
        CspCase{11, 4, 3, 6, 0.0},
        // Single GPU degenerate pipeline.
        CspCase{12, 10, 3, 1, 0.0}));

/// GPU-count pairs whose outcomes must agree bitwise.
class CspCrossGpuProperty
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(CspCrossGpuProperty, OutcomeIndependentOfGpuCount)
{
    auto [gpusA, gpusB] = GetParam();
    SearchSpace space("prop", SpaceFamily::Cv, 12, 5, 21, 0.3);

    auto runWith = [&space](int gpus) {
        RuntimeConfig config;
        config.system = naspipeSystem();
        config.numStages = gpus;
        config.totalSubnets = 24;
        config.seed = 21;
        config.batch = 16;  // pinned across GPU counts (paper §5.2)
        return runTraining(space, config);
    };
    RunResult a = runWith(gpusA);
    RunResult b = runWith(gpusB);
    ASSERT_FALSE(a.oom);
    ASSERT_FALSE(b.oom);
    EXPECT_EQ(a.supernetHash, b.supernetHash);
    EXPECT_EQ(a.losses, b.losses);
    EXPECT_EQ(a.bestSubnet, b.bestSubnet);
}

INSTANTIATE_TEST_SUITE_P(GpuPairs, CspCrossGpuProperty,
                         ::testing::Values(std::pair{1, 2},
                                           std::pair{2, 4},
                                           std::pair{4, 8},
                                           std::pair{3, 6},
                                           std::pair{1, 8}));

} // namespace
} // namespace naspipe
