/**
 * @file
 * The numeric kernel layer's golden acceptance: for every
 * (space, precision mode, worker count), the trained supernet hash
 * must (a) agree between the simulator and the threaded executor
 * bit for bit, with the threaded run CSP-clean under a live oracle,
 * and (b) equal the committed golden hash. The grid pins the
 * trajectories under the library's own tanh (tensor/kernels/tanh.h),
 * so it holds on any IEEE-754 host whatever its libm; the fp32
 * goldens pin full-precision storage, the fp16_rne goldens the
 * half-storage trajectories.
 *
 * If an intentional numeric change moves a hash, recapture with:
 *   naspipe_cli --space S --gpus G --steps 32 --seed 7
 *               --executor threads [--precision fp16]
 * and update the table below, the only committed copy of the grid.
 *
 * The same runs on the simulator with a drained checkpoint every 8
 * subnets also pin the bytes of the last NPRC file they write
 * (kCheckpointPins), which must load and serialize back to itself.
 * Those bytes move with the trajectory and with any change to the
 * NPRC, NASP or access-log layouts. Recapture them with:
 *   naspipe_cli --space S --gpus 4 --steps 32 --seed 7 --executor sim
 *               --ckpt-interval 8 --ckpt F [--precision fp16]
 *               [--verify-csp]
 * (--verify-csp keeps the access history) and take hashBytes of F,
 * which a failing row prints.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "common/rng.h"
#include "core/engine.h"
#include "exec/parallel_runtime.h"
#include "train/run_checkpoint.h"
#include "verify/csp_oracle.h"

namespace naspipe {
namespace {

struct Golden {
    const char *space;
    kernels::PrecisionMode mode;
    int workers;
    std::uint64_t hash;
};

// seed 7, 32 steps. Hashes depend on the worker count (it decides
// partitioning and batch), so goldens are per (space, mode, workers);
// sim == threads is the invariant at every point of the grid.
constexpr Golden kGoldens[] = {
    {"NLP.c1", kernels::PrecisionMode::Fp32, 1,
     0x80366a286860c23dULL},
    {"NLP.c1", kernels::PrecisionMode::Fp32, 2,
     0xb226a5fca3070cefULL},
    {"NLP.c1", kernels::PrecisionMode::Fp32, 4,
     0x32263359c5dea6f7ULL},
    {"NLP.c1", kernels::PrecisionMode::Fp32, 8,
     0xa7c3d1b7a66f295eULL},
    {"CV.c1", kernels::PrecisionMode::Fp32, 1,
     0x8b062edbe34441d4ULL},
    {"CV.c1", kernels::PrecisionMode::Fp32, 2,
     0xe8023552fd6bb940ULL},
    {"CV.c1", kernels::PrecisionMode::Fp32, 4,
     0x219a2a9dcd3a4c7dULL},
    {"CV.c1", kernels::PrecisionMode::Fp32, 8,
     0x219a2a9dcd3a4c7dULL},
    {"NLP.c1", kernels::PrecisionMode::Fp16Rne, 1,
     0xa2f17ab3fc23863dULL},
    {"NLP.c1", kernels::PrecisionMode::Fp16Rne, 2,
     0x35842c6457b96261ULL},
    {"NLP.c1", kernels::PrecisionMode::Fp16Rne, 4,
     0xcc5b8116dc75ad43ULL},
    {"NLP.c1", kernels::PrecisionMode::Fp16Rne, 8,
     0xb51cebaa73c1c216ULL},
    {"CV.c1", kernels::PrecisionMode::Fp16Rne, 1,
     0x2cd7a20152c599f2ULL},
    {"CV.c1", kernels::PrecisionMode::Fp16Rne, 2,
     0x4128c78a257a9192ULL},
    {"CV.c1", kernels::PrecisionMode::Fp16Rne, 4,
     0x7df4511c1a20f704ULL},
    {"CV.c1", kernels::PrecisionMode::Fp16Rne, 8,
     0x7df4511c1a20f704ULL},
};

struct CheckpointPin {
    const char *space;
    kernels::PrecisionMode mode;
    bool accessHistory;
    std::uint64_t fileHash;  ///< hashBytes of the whole NPRC file
};

// seed 7, 32 steps, 4 workers, --executor sim, ckptInterval 8: the
// file holds the drained checkpoint at 32 completed subnets.
constexpr CheckpointPin kCheckpointPins[] = {
    {"NLP.c1", kernels::PrecisionMode::Fp32, false,
     0x34ca05e53915ea6dULL},
    {"NLP.c1", kernels::PrecisionMode::Fp32, true,
     0x3d67f68dc797b19fULL},
    {"CV.c1", kernels::PrecisionMode::Fp32, false,
     0x48a477813b5a3e57ULL},
    {"CV.c1", kernels::PrecisionMode::Fp32, true,
     0x63a5fd1d164769abULL},
    {"NLP.c1", kernels::PrecisionMode::Fp16Rne, false,
     0xf5e87fff87137a55ULL},
    {"NLP.c1", kernels::PrecisionMode::Fp16Rne, true,
     0x0e942d04de8c723dULL},
    {"CV.c1", kernels::PrecisionMode::Fp16Rne, false,
     0xf9546b629ad00b58ULL},
    {"CV.c1", kernels::PrecisionMode::Fp16Rne, true,
     0x7490f66ed5bf6d66ULL},
};

TEST(NumericGolden, EveryModeWorkersExecutorLandsOnTheGoldenHash)
{
    for (const Golden &g : kGoldens) {
        SCOPED_TRACE(std::string(g.space) + " " +
                     kernels::precisionModeName(g.mode) + " " +
                     std::to_string(g.workers) + " workers");
        SearchSpace space = makeSpaceByName(g.space);
        RuntimeConfig c;
        c.system = naspipeSystem();
        c.numStages = g.workers;
        c.totalSubnets = 32;
        c.seed = 7;
        c.precision = g.mode;
        c.accessHistory = true;  // the threaded run's log is audited

        RunResult sim = runTraining(space, c);
        ASSERT_FALSE(sim.failed) << sim.error;
        ASSERT_FALSE(sim.oom);

        CspOracle oracle;
        c.commitObserver = [&oracle](std::uint64_t layerKey,
                                     SubnetId subnet,
                                     std::size_t rank, int stage) {
            oracle.observeCommit(layerKey, subnet, rank, stage);
        };
        RunResult thr = runTrainingThreaded(space, c);
        ASSERT_FALSE(thr.failed) << thr.error;
        ASSERT_FALSE(thr.oom);
        EXPECT_TRUE(oracle.auditLog(thr.store->accessLog()));
        EXPECT_TRUE(oracle.ok()) << oracle.report();

        EXPECT_EQ(sim.supernetHash, thr.supernetHash);
        EXPECT_EQ(sim.losses, thr.losses);
        EXPECT_EQ(thr.supernetHash, g.hash)
            << "trained weights moved off the committed golden";
    }
}

TEST(NumericGolden, SimCheckpointFilesLandOnTheirPinnedBytes)
{
    const std::string path =
        ::testing::TempDir() + "naspipe_golden_pin.ckpt";
    for (const CheckpointPin &p : kCheckpointPins) {
        SCOPED_TRACE(std::string(p.space) + " " +
                     kernels::precisionModeName(p.mode) +
                     (p.accessHistory ? " with" : " without") +
                     " access history");
        SearchSpace space = makeSpaceByName(p.space);
        RuntimeConfig c;
        c.system = naspipeSystem();
        c.numStages = 4;
        c.totalSubnets = 32;
        c.seed = 7;
        c.precision = p.mode;
        c.accessHistory = p.accessHistory;
        c.ckptInterval = 8;
        c.ckptPath = path;
        RunResult r = runTraining(space, c);
        ASSERT_FALSE(r.failed) << r.error;
        ASSERT_EQ(r.metrics.checkpointsWritten, 4);

        std::ifstream in(path, std::ios::binary);
        const std::string bytes(std::istreambuf_iterator<char>(in), {});
        EXPECT_EQ(hashBytes(bytes.data(), bytes.size()), p.fileHash)
            << std::hex << "file hash 0x"
            << hashBytes(bytes.data(), bytes.size());
        RunCheckpoint ckpt;
        ASSERT_TRUE(ckpt.loadFile(path));
        EXPECT_TRUE(ckpt.serialize() == bytes)
            << "the file does not serialize back to itself";
        std::remove(path.c_str());
    }
}

TEST(NumericGolden, PrecisionModesProduceDistinctTrajectories)
{
    // fp16 storage rounding must actually bite: a half-rounded run
    // that lands on the fp32 hash would mean quantization silently
    // no-opped.
    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c;
    c.system = naspipeSystem();
    c.numStages = 4;
    c.totalSubnets = 32;
    c.seed = 7;
    RunResult fp32 = runTraining(space, c);
    c.precision = kernels::PrecisionMode::Fp16Rne;
    RunResult fp16 = runTraining(space, c);
    ASSERT_FALSE(fp32.failed);
    ASSERT_FALSE(fp16.failed);
    EXPECT_NE(fp32.supernetHash, fp16.supernetHash);
}

} // namespace
} // namespace naspipe
