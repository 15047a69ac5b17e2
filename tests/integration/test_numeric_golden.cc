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
 *
 * kRunPins extends those pins to the other systems, to fail-stop
 * recovery and to the evolution sampler: each row pins the last NPRC
 * file, the supernet hash and the bits of the final loss of one
 * --executor sim run (seed 7, 32 steps, --ckpt-interval 8). A failing
 * row prints all three. They were captured before the simulator
 * moved onto the commit gate and the shared completion step, so they
 * hold the completion path to the bits it produced before. Recapture
 * one with the command above plus the row's flags, e.g.
 *   naspipe_cli --space NLP.c1 --gpus 4 --steps 32 --seed 7
 *               --executor sim --ckpt-interval 8 --ckpt F
 *               --system naspipe --inject-fault crash@12
 * (the CLI prints the supernet hash as weights; the final loss is
 * RunMetrics::finalLoss).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "common/rng.h"
#include "core/engine.h"
#include "exec/parallel_runtime.h"
#include "schedule/ssp_scheduler.h"
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

SystemModel
sspDefaultSystem()
{
    return sspSystem(2);  // the CLI's default --staleness
}

struct RunPin {
    const char *space;
    SystemModel (*system)();
    int workers;
    const char *fault;  ///< --inject-fault spec, or nullptr
    bool evolution;
    int recoveries;
    std::uint64_t fileHash;      ///< hashBytes of the last NPRC file
    std::uint64_t supernetHash;
    std::uint64_t finalLossBits;  ///< RunMetrics::finalLoss, bitwise
};

// seed 7, 32 steps, --executor sim, ckptInterval 8.
constexpr RunPin kRunPins[] = {
    {"NLP.c1", naspipeSystem, 4, "crash@12", false, 1,
     0x44d7d397dfe46a18ULL, 0x32263359c5dea6f7ULL,
     0x3fc884de04000000ULL},
    {"NLP.c1", naspipeSystem, 4, "drop@22,stage=1", false, 1,
     0x34a4860682f68ddfULL, 0x32263359c5dea6f7ULL,
     0x3fc884de04000000ULL},
    {"NLP.c1", naspipeWithoutScheduler, 4, nullptr, false, 0,
     0xfc5149df03403333ULL, 0x32263359c5dea6f7ULL,
     0x3fc884de04000000ULL},
    {"NLP.c1", vpipeSystem, 4, nullptr, false, 0,
     0xac4320f86950c9c8ULL, 0xcc3a782bb90a4452ULL,
     0x3fc884f801000000ULL},
    {"NLP.c1", sspDefaultSystem, 4, nullptr, false, 0,
     0xfd6bc5b1b5d45e97ULL, 0x20578dfbe0d4d28cULL,
     0x3fc884ee77000000ULL},
    {"CV.c1", gpipeSystem, 4, nullptr, false, 0,
     0xb2631ab4f709fe56ULL, 0x05668054e47c26ceULL,
     0x3fc29a86c2000000ULL},
    {"NLP.c1", pipedreamSystem, 8, nullptr, false, 0,
     0xc628f9884ccc1136ULL, 0x846828bdeab66b53ULL,
     0x3fc8881c7b000000ULL},
    {"NLP.c1", naspipeSystem, 4, nullptr, true, 0,
     0xb6963666e4d8f5acULL, 0xbfdc4bf7652d46e6ULL,
     0x3fc6ff476a000000ULL},
};

/** The checkpoint file at @p path: its bytes, after checking that it
 *  loads and serializes back to itself. */
std::string
roundTrippedFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    const std::string bytes(std::istreambuf_iterator<char>(in), {});
    RunCheckpoint ckpt;
    EXPECT_TRUE(ckpt.loadFile(path));
    EXPECT_TRUE(ckpt.serialize() == bytes)
        << "the file does not serialize back to itself";
    return bytes;
}

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

        const std::string bytes = roundTrippedFile(path);
        EXPECT_EQ(hashBytes(bytes.data(), bytes.size()), p.fileHash)
            << std::hex << "file hash 0x"
            << hashBytes(bytes.data(), bytes.size());
        std::remove(path.c_str());
    }
}

TEST(NumericGolden, SimRunsLandOnTheirPinnedCheckpointHashAndLoss)
{
    const std::string path =
        ::testing::TempDir() + "naspipe_golden_run_pin.ckpt";
    for (const RunPin &p : kRunPins) {
        RuntimeConfig c;
        c.system = p.system();
        SCOPED_TRACE(std::string(p.space) + " " + c.system.name + " " +
                     std::to_string(p.workers) + " workers" +
                     (p.fault ? std::string(" ") + p.fault : "") +
                     (p.evolution ? " evolution" : ""));
        SearchSpace space = makeSpaceByName(p.space);
        c.numStages = p.workers;
        c.totalSubnets = 32;
        c.seed = 7;
        c.evolutionSearch = p.evolution;
        c.ckptInterval = 8;
        c.ckptPath = path;
        if (p.fault) {
            FaultSpec f;
            ASSERT_TRUE(parseFaultSpec(p.fault, f));
            c.faults = {f};
        }
        RunResult r = runTraining(space, c);
        ASSERT_FALSE(r.oom);
        ASSERT_FALSE(r.failed) << r.error;
        EXPECT_EQ(r.metrics.recoveries, p.recoveries);

        const std::string bytes = roundTrippedFile(path);
        std::uint64_t lossBits = 0;
        std::memcpy(&lossBits, &r.metrics.finalLoss, sizeof lossBits);
        EXPECT_EQ(hashBytes(bytes.data(), bytes.size()), p.fileHash)
            << std::hex << "file hash 0x"
            << hashBytes(bytes.data(), bytes.size());
        EXPECT_EQ(r.supernetHash, p.supernetHash)
            << std::hex << "supernet hash 0x" << r.supernetHash;
        EXPECT_EQ(lossBits, p.finalLossBits)
            << std::hex << "final loss bits 0x" << lossBits;
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
