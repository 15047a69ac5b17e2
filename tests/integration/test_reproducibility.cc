/**
 * @file
 * Reproducibility integration tests (paper Definition 1, Tables 3/4).
 */

#include <gtest/gtest.h>

#include "core/engine.h"
#include "runtime/replay.h"

namespace naspipe {
namespace {

Engine::Options
options(int steps = 24)
{
    Engine::Options o;
    o.steps = steps;
    o.seed = 7;
    return o;
}

/** Train @p system on @p gpus, keeping the history Table 4 renders. */
RunResult
trainWithHistory(const SearchSpace &space, const SystemModel &system,
                 int gpus)
{
    Engine::Options o = options();
    o.gpus = gpus;
    RuntimeConfig config = Engine(space, o).configFor(system);
    config.accessHistory = true;
    return runTraining(space, config);
}

TEST(Reproducibility, CspBitwiseIdenticalAcrossGpuCounts)
{
    SearchSpace space("repro", SpaceFamily::Nlp, 12, 4, 5);
    auto comparisons = Engine::verifyReproducibility(
        space, naspipeSystem(), {2, 4, 8}, options());
    ASSERT_EQ(comparisons.size(), 2u);
    for (const auto &cmp : comparisons) {
        EXPECT_TRUE(cmp.sameWeights);
        EXPECT_TRUE(cmp.sameLosses);
        EXPECT_TRUE(cmp.sameSearch);
    }
}

TEST(Reproducibility, BspDivergesAcrossGpuCounts)
{
    // GPipe's bulk size follows the GPU count, so the in-bulk
    // read/write interleaving — and hence the trained weights —
    // change with the cluster (Table 3's BSP rows).
    SearchSpace space("repro", SpaceFamily::Nlp, 12, 4, 5);
    auto comparisons = Engine::verifyReproducibility(
        space, gpipeSystem(), {2, 4, 8}, options());
    bool anyDiverged = false;
    for (const auto &cmp : comparisons)
        anyDiverged |= !cmp.sameWeights;
    EXPECT_TRUE(anyDiverged);
}

TEST(Reproducibility, AspDivergesAcrossGpuCounts)
{
    SearchSpace space("repro", SpaceFamily::Nlp, 12, 4, 5);
    auto comparisons = Engine::verifyReproducibility(
        space, pipedreamSystem(), {2, 4, 8}, options());
    bool anyDiverged = false;
    for (const auto &cmp : comparisons)
        anyDiverged |= !cmp.sameWeights;
    EXPECT_TRUE(anyDiverged);
}

TEST(Reproducibility, CspAblationsRemainReproducible)
{
    // Disabling the predictor or mirroring changes performance, not
    // semantics: CSP's guarantee must survive every ablation.
    SearchSpace space("repro", SpaceFamily::Nlp, 12, 4, 5);
    for (const SystemModel &system :
         {naspipeWithoutScheduler(), naspipeWithoutPredictor(),
          naspipeWithoutMirroring()}) {
        auto comparisons = Engine::verifyReproducibility(
            space, system, {2, 4}, options(16));
        for (const auto &cmp : comparisons) {
            EXPECT_TRUE(cmp.reproducible()) << system.name;
        }
    }
}

TEST(Reproducibility, Table4AccessOrderInvariantForCsp)
{
    // Find a layer touched by at least three subnets and check its
    // access string matches across GPU counts (Table 4's CSP row).
    SearchSpace space("repro", SpaceFamily::Nlp, 12, 4, 5);
    RunResult r2 = trainWithHistory(space, naspipeSystem(), 2);
    RunResult r4 = trainWithHistory(space, naspipeSystem(), 4);
    ASSERT_FALSE(r2.oom);
    ASSERT_FALSE(r4.oom);

    int checked = 0;
    for (const LayerId &layer : r2.store->accessLog().touchedLayers()) {
        if (r2.store->accessLog().layerHistory(layer).size() >= 6) {
            EXPECT_EQ(r2.store->accessLog().renderOrder(layer),
                      r4.store->accessLog().renderOrder(layer));
            checked++;
        }
    }
    EXPECT_GT(checked, 0);
}

TEST(Reproducibility, Table4AccessOrderVariesForBsp)
{
    SearchSpace space("repro", SpaceFamily::Nlp, 12, 4, 5);
    RunResult r2 = trainWithHistory(space, gpipeSystem(), 2);
    RunResult r8 = trainWithHistory(space, gpipeSystem(), 8);
    ASSERT_FALSE(r2.oom);
    ASSERT_FALSE(r8.oom);

    bool anyDiffer = false;
    for (const LayerId &layer : r2.store->accessLog().touchedLayers()) {
        if (r2.store->accessLog().renderOrder(layer) !=
            r8.store->accessLog().renderOrder(layer)) {
            anyDiffer = true;
            break;
        }
    }
    EXPECT_TRUE(anyDiffer);
}

TEST(Reproducibility, EvolutionSearchReproducibleWithFeedbackLag)
{
    // Feedback-driven exploration closes a loop through completion
    // timing; the logical feedback lag (RuntimeConfig::feedbackLag)
    // makes the sampler's view a pure function of (seed, losses by
    // ID), so even evolution search replays bitwise on any cluster.
    SearchSpace space("repro-evo", SpaceFamily::Nlp, 12, 4, 5);
    Engine::Options o = options(40);
    o.evolutionSearch = true;
    auto comparisons = Engine::verifyReproducibility(
        space, naspipeSystem(), {2, 4, 8}, o);
    for (const auto &cmp : comparisons)
        EXPECT_TRUE(cmp.reproducible());
}

TEST(Reproducibility, FeedbackLagBoundsSamplerView)
{
    // With lag L, subnet i must only ever be drawn after the scores
    // of subnets <= i - L were delivered — verify via a run whose
    // sampled stream is identical across GPU counts (the stream *is*
    // the sampler's decisions).
    SearchSpace space("repro-evo", SpaceFamily::Nlp, 12, 4, 5);
    auto runWith = [&space](int gpus) {
        RuntimeConfig config;
        config.system = naspipeSystem();
        config.numStages = gpus;
        config.totalSubnets = 32;
        config.seed = 7;
        config.batch = 16;
        config.evolutionSearch = true;
        config.feedbackLag = 6;
        return runTraining(space, config);
    };
    RunResult a = runWith(2);
    RunResult b = runWith(8);
    ASSERT_FALSE(a.oom);
    ASSERT_FALSE(b.oom);
    ASSERT_EQ(a.sampled.size(), b.sampled.size());
    for (std::size_t i = 0; i < a.sampled.size(); i++)
        EXPECT_EQ(a.sampled[i], b.sampled[i]) << "draw " << i;
}

TEST(Reproducibility, RepeatedRunsIdenticalEvenForBaselines)
{
    // Our simulation is deterministic per configuration: the
    // *within-configuration* repeatability the paper attributes to
    // deterministic kernels holds for every system; only the
    // cross-cluster invariance is CSP-exclusive.
    SearchSpace space("repro", SpaceFamily::Nlp, 12, 4, 5);
    Engine::Options o = options(16);
    o.gpus = 4;
    Engine engine(space, o);
    RunResult a = engine.trainWith(pipedreamSystem());
    RunResult b = engine.trainWith(pipedreamSystem());
    EXPECT_TRUE(compareRuns(a, b).reproducible());
}

} // namespace
} // namespace naspipe
