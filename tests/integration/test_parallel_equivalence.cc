/**
 * @file
 * Threaded-vs-simulated equivalence (the threaded executor's
 * acceptance test).
 *
 * Definition 1 extended to real concurrency: for the same
 * (space, seed, worker count), the threaded executor's trained supernet
 * must be bitwise identical to the discrete-event simulator's — which
 * the simulator in turn proves equal to sequential training. Checked
 * on the paper spaces NLP.c1 and CV.c1 across 1/2/4/8 workers, and
 * across repeated threaded runs (the OS scheduler will interleave the
 * workers differently every time; the weights must not care).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "exec/parallel_runtime.h"
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

/** Everything Definition 1 compares, from either executor. */
struct Fingerprint {
    std::uint64_t weights = 0;
    std::map<SubnetId, float> losses;
    SubnetId bestSubnet = -1;
    int causalViolations = -1;
};

Fingerprint
fingerprint(const RunResult &result)
{
    EXPECT_FALSE(result.failed) << result.error;
    EXPECT_FALSE(result.oom);
    Fingerprint f;
    f.weights = result.supernetHash;
    f.losses = result.losses;
    f.bestSubnet = result.bestSubnet;
    f.causalViolations = result.metrics.causalViolations;
    return f;
}

void
expectEquivalent(const std::string &spaceName, int workers, int steps)
{
    SCOPED_TRACE(spaceName + " with " + std::to_string(workers) +
                 " workers");
    SearchSpace space = makeSpaceByName(spaceName);
    RuntimeConfig c = config(workers, steps);

    RunResult simResult = runTraining(space, c);

    // The threaded run executes under the CspOracle: live commit
    // monotonicity during the run, full access-log audit after it.
    CspOracle oracle;
    c.commitObserver = [&oracle](std::uint64_t layerKey,
                                 SubnetId subnet, std::size_t rank,
                                 int stage) {
        oracle.observeCommit(layerKey, subnet, rank, stage);
    };
    c.accessHistory = true;  // the post-hoc audit replays it
    RunResult thrResult = runTrainingThreaded(space, c);

    Fingerprint sim = fingerprint(simResult);
    Fingerprint thr = fingerprint(thrResult);

    EXPECT_TRUE(oracle.auditLog(thrResult.store->accessLog()));
    EXPECT_TRUE(oracle.ok()) << oracle.report();
    EXPECT_GT(oracle.observedCommits(), 0u);

    EXPECT_EQ(sim.causalViolations, 0);
    EXPECT_EQ(thr.causalViolations, 0);
    EXPECT_EQ(sim.weights, thr.weights);
    EXPECT_EQ(sim.losses, thr.losses);  // float-exact, not approx
    EXPECT_EQ(sim.bestSubnet, thr.bestSubnet);
}

TEST(ParallelEquivalence, NlpC1MatchesSimulatorAcrossWorkerCounts)
{
    for (int workers : {1, 2, 4, 8})
        expectEquivalent("NLP.c1", workers, 32);
}

TEST(ParallelEquivalence, CvC1MatchesSimulatorAcrossWorkerCounts)
{
    for (int workers : {1, 2, 4, 8})
        expectEquivalent("CV.c1", workers, 32);
}

TEST(ParallelEquivalence, RepeatedThreadedRunsAreBitwiseIdentical)
{
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(4, 32);
    Fingerprint first =
        fingerprint(runTrainingThreaded(space, c));
    for (int run = 1; run < 5; run++) {
        SCOPED_TRACE("repeat " + std::to_string(run));
        Fingerprint again =
            fingerprint(runTrainingThreaded(space, c));
        EXPECT_EQ(first.weights, again.weights);
        EXPECT_EQ(first.losses, again.losses);
        EXPECT_EQ(first.bestSubnet, again.bestSubnet);
        EXPECT_EQ(again.causalViolations, 0);
    }
}

TEST(ParallelEquivalence, FeedbackDrivenSamplerMatchesToo)
{
    // The evolution sampler consumes scores with a feedback lag; the
    // coordinator must replicate the simulator's delivery order or
    // the two executors sample different subnet streams entirely.
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(4, 48);
    c.evolutionSearch = true;

    RunResult sim = runTraining(space, c);
    RunResult thr = runTrainingThreaded(space, c);
    ASSERT_FALSE(sim.failed);
    ASSERT_FALSE(thr.failed) << thr.error;
    ASSERT_EQ(sim.sampled.size(), thr.sampled.size());
    for (std::size_t i = 0; i < sim.sampled.size(); i++) {
        EXPECT_EQ(sim.sampled[i].choices(), thr.sampled[i].choices())
            << "diverged at SN" << i;
    }
    EXPECT_EQ(sim.supernetHash, thr.supernetHash);
}

} // namespace
} // namespace naspipe
