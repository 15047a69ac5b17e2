/**
 * @file
 * Threaded checkpoint/resume (the session layer's acceptance test).
 *
 * Drained-barrier checkpoints make the saved state a pure function of
 * the completed-subnet count, so a checkpoint is executor-agnostic:
 * a threaded run resumed from a mid-run checkpoint must finish with
 * weights bitwise identical to an uninterrupted run — on either
 * executor — and checkpoints written by the simulator must restore on
 * threads and vice versa. Checked on the paper spaces NLP.c1 and
 * CV.c1 across 1/2/4/8 workers, with every resumed threaded run
 * executing under the CspOracle.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.h"
#include "exec/parallel_runtime.h"
#include "verify/csp_oracle.h"

namespace naspipe {
namespace {

constexpr int kSteps = 32;

// Interval 5 over 32 steps leaves barriers at 5..30: the last
// on-disk checkpoint (completed = 30) is a genuine mid-run state,
// so resume actually replays history and then trains SN30, SN31.
constexpr int kCkptInterval = 5;

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

/** A unique scratch checkpoint path, removed on destruction. */
class ScratchCkpt
{
  public:
    explicit ScratchCkpt(const std::string &tag)
        : _path(::testing::TempDir() + "naspipe_resume_" + tag +
                ".ckpt")
    {
        std::remove(_path.c_str());
    }
    ~ScratchCkpt() { std::remove(_path.c_str()); }
    const std::string &path() const { return _path; }

  private:
    std::string _path;
};

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

/**
 * Run with mid-run checkpoints persisted to @p path, keeping the
 * access history an audited resume replays.
 */
RunResult
runWithCkpt(const SearchSpace &space, RuntimeConfig c,
            const std::string &path, bool threaded)
{
    c.ckptInterval = kCkptInterval;
    c.ckptPath = path;
    c.accessHistory = true;
    return threaded ? runTrainingThreaded(space, c)
                    : runTraining(space, c);
}

/** Resume from @p path on threads, audited by the CspOracle. */
RunResult
resumeThreadedAudited(const SearchSpace &space, RuntimeConfig c,
                      const std::string &path)
{
    c.resumePath = path;
    c.accessHistory = true;  // the post-run audit replays the history
    CspOracle oracle;
    c.commitObserver = [&oracle](std::uint64_t layerKey,
                                 SubnetId subnet, std::size_t rank,
                                 int stage) {
        oracle.observeCommit(layerKey, subnet, rank, stage);
    };
    RunResult result = runTrainingThreaded(space, c);
    EXPECT_FALSE(result.failed) << result.error;
    if (!result.failed) {
        EXPECT_TRUE(oracle.auditLog(result.store->accessLog()));
        EXPECT_TRUE(oracle.ok()) << oracle.report();
        EXPECT_GT(oracle.observedCommits(), 0u);
    }
    return result;
}

void
expectResumeEquivalent(const std::string &spaceName, int workers)
{
    SCOPED_TRACE(spaceName + " with " + std::to_string(workers) +
                 " workers");
    SearchSpace space = makeSpaceByName(spaceName);
    RuntimeConfig c = config(workers, kSteps);

    // Baselines: uninterrupted runs on both executors.
    Fingerprint sim = fingerprint(runTraining(space, c));
    Fingerprint thr = fingerprint(runTrainingThreaded(space, c));
    ASSERT_EQ(sim.weights, thr.weights);

    // A threaded run that checkpoints along the way must itself be
    // bitwise unaffected by the checkpoint barriers...
    ScratchCkpt scratch(spaceName + "_w" + std::to_string(workers));
    RunResult ckptRun =
        runWithCkpt(space, c, scratch.path(), /*threaded=*/true);
    Fingerprint withCkpt = fingerprint(ckptRun);
    EXPECT_GE(ckptRun.metrics.checkpointsWritten,
              kSteps / kCkptInterval);
    EXPECT_EQ(withCkpt.weights, thr.weights);
    EXPECT_EQ(withCkpt.losses, thr.losses);

    // ...and resuming from its last (mid-run) checkpoint must land on
    // the same weights as never having stopped, on either executor.
    Fingerprint resumed = fingerprint(
        resumeThreadedAudited(space, c, scratch.path()));
    EXPECT_EQ(resumed.causalViolations, 0);
    EXPECT_EQ(resumed.weights, thr.weights);
    EXPECT_EQ(resumed.weights, sim.weights);
    EXPECT_EQ(resumed.losses, thr.losses);
    EXPECT_EQ(resumed.bestSubnet, thr.bestSubnet);
}

TEST(ThreadedResume, NlpC1BitwiseEqualAcrossWorkerCounts)
{
    for (int workers : {1, 2, 4, 8})
        expectResumeEquivalent("NLP.c1", workers);
}

TEST(ThreadedResume, CvC1BitwiseEqualAcrossWorkerCounts)
{
    for (int workers : {1, 2, 4, 8})
        expectResumeEquivalent("CV.c1", workers);
}

TEST(ThreadedResume, SimCheckpointRestoresOnThreads)
{
    // Cross-executor, direction 1: the simulator writes the
    // checkpoint, the threaded executor resumes from it.
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(4, kSteps);
    Fingerprint baseline = fingerprint(runTraining(space, c));

    ScratchCkpt scratch("sim_to_thr");
    fingerprint(
        runWithCkpt(space, c, scratch.path(), /*threaded=*/false));
    Fingerprint resumed = fingerprint(
        resumeThreadedAudited(space, c, scratch.path()));
    EXPECT_EQ(resumed.weights, baseline.weights);
    EXPECT_EQ(resumed.losses, baseline.losses);
}

TEST(ThreadedResume, ThreadsCheckpointRestoresOnSimulator)
{
    // Cross-executor, direction 2: threads write, simulator resumes.
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(4, kSteps);
    Fingerprint baseline = fingerprint(runTraining(space, c));

    ScratchCkpt scratch("thr_to_sim");
    fingerprint(
        runWithCkpt(space, c, scratch.path(), /*threaded=*/true));
    RuntimeConfig r = c;
    r.resumePath = scratch.path();
    Fingerprint resumed = fingerprint(runTraining(space, r));
    EXPECT_EQ(resumed.weights, baseline.weights);
    EXPECT_EQ(resumed.losses, baseline.losses);
}

TEST(ThreadedResume, ResumedRunReportsRealContextCacheStats)
{
    // The ported context manager must do real work on the resumed
    // path too: a genuine hit rate (not the old N/A placeholder) and
    // a peak resident set within the configured budget.
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(4, kSteps);

    ScratchCkpt scratch("cache_stats");
    runWithCkpt(space, c, scratch.path(), /*threaded=*/true);
    RunResult resumed =
        resumeThreadedAudited(space, c, scratch.path());
    ASSERT_FALSE(resumed.failed) << resumed.error;

    ASSERT_TRUE(resumed.metrics.cacheHitRate.has_value());
    EXPECT_GT(*resumed.metrics.cacheHitRate, 0.0);
    EXPECT_GT(resumed.metrics.cacheBudgetBytes, 0u);
    EXPECT_GT(resumed.metrics.cachePeakBytes, 0u);
    EXPECT_LE(resumed.metrics.cachePeakBytes,
              resumed.metrics.cacheBudgetBytes);
}

TEST(ThreadedResume, MissingCheckpointFailsCleanly)
{
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c = config(4, kSteps);
    c.resumePath = ::testing::TempDir() + "naspipe_no_such.ckpt";
    RunResult result = runTrainingThreaded(space, c);
    EXPECT_TRUE(result.failed);
    EXPECT_NE(result.error.find("cannot resume"), std::string::npos)
        << result.error;
}

TEST(ThreadedResume, HistoryRunRefusesCheckpointWithoutHistory)
{
    // A checkpoint written without history cannot seed a run that
    // audits its full history: the replayed prefix would be missing.
    SearchSpace space = makeSpaceByName("CV.c1");
    RuntimeConfig c = config(2, 12);
    ScratchCkpt scratch("no_history");
    c.ckptInterval = 4;
    c.ckptPath = scratch.path();
    ASSERT_FALSE(runTrainingThreaded(space, c).failed);

    RuntimeConfig r = config(2, 12);
    r.resumePath = scratch.path();
    r.accessHistory = true;
    RunResult result = runTrainingThreaded(space, r);
    EXPECT_TRUE(result.failed);
    EXPECT_NE(result.error.find("cannot resume"), std::string::npos)
        << result.error;

    // Without the opt-in the same checkpoint resumes.
    r.accessHistory = false;
    EXPECT_FALSE(runTrainingThreaded(space, r).failed);
}

TEST(ThreadedResume, PrecisionMismatchIsRefused)
{
    SearchSpace space = makeSpaceByName("CV.c1");
    RuntimeConfig c = config(2, 12);
    ScratchCkpt scratch("precision");
    c.ckptInterval = 4;
    c.ckptPath = scratch.path();
    ASSERT_FALSE(runTrainingThreaded(space, c).failed);

    RuntimeConfig r = config(2, 12);
    r.resumePath = scratch.path();
    r.precision = kernels::PrecisionMode::Fp16Rne;
    RunResult result = runTrainingThreaded(space, r);
    EXPECT_TRUE(result.failed);
    EXPECT_NE(result.error.find("cannot resume"), std::string::npos)
        << result.error;
}

/**
 * The committed version 1 checkpoint: CV.c3, seed 7, 2 workers,
 * 16 subnets, written at 8 completed subnets by a build that
 * predates format version 2 (`naspipe_cli --space CV.c3 --gpus 2
 * --steps 16 --executor threads --ckpt-interval 8 --ckpt v1.ckpt
 * --recovery-retries 0 --inject-fault crash@12`).
 */
const std::string kV1Checkpoint =
    std::string(NASPIPE_TEST_DATA_DIR) + "/cv_c3_v1.ckpt";

TEST(ThreadedResume, VersionOneCheckpointResumesBitwise)
{
    SearchSpace space = makeSpaceByName("CV.c3");
    RuntimeConfig c = config(2, 16);
    Fingerprint baseline = fingerprint(runTrainingThreaded(space, c));

    // Cursors rebuilt from the v1 history, no history kept.
    RuntimeConfig r = c;
    r.resumePath = kV1Checkpoint;
    Fingerprint resumed = fingerprint(runTrainingThreaded(space, r));
    EXPECT_EQ(resumed.weights, baseline.weights);
    EXPECT_EQ(resumed.losses, baseline.losses);
    EXPECT_EQ(resumed.causalViolations, 0);

    // The v1 history itself, audited end to end by the oracle.
    Fingerprint audited = fingerprint(
        resumeThreadedAudited(space, c, kV1Checkpoint));
    EXPECT_EQ(audited.weights, baseline.weights);
    EXPECT_EQ(audited.losses, baseline.losses);

    // The simulator restores the same file onto the same bits.
    Fingerprint onSim = fingerprint(runTraining(space, r));
    EXPECT_EQ(onSim.weights, baseline.weights);
    EXPECT_EQ(onSim.losses, baseline.losses);
}

} // namespace
} // namespace naspipe
