/**
 * @file
 * The numeric kernel layer's golden acceptance: for every
 * (space, precision mode, worker count), the trained supernet hash
 * must (a) agree between the simulator and the threaded executor
 * bit for bit, with the threaded run CSP-clean under a live oracle,
 * and (b) equal the committed golden hash — the fp32 goldens are the
 * pre-kernel-refactor trajectories, proving the tree reductions,
 * views and arenas changed no trained bit; the fp16_rne goldens pin
 * the half-storage trajectories the same way.
 *
 * If an intentional numeric change moves a hash, recapture with:
 *   naspipe_cli --space S --gpus G --steps 32 --seed 7
 *               --executor threads [--precision fp16]
 * and update the table below, the only committed copy of the grid.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/engine.h"
#include "exec/parallel_runtime.h"
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
     0x31b24902f4f10672ULL},
    {"NLP.c1", kernels::PrecisionMode::Fp32, 2,
     0x8effdefe3689d2edULL},
    {"NLP.c1", kernels::PrecisionMode::Fp32, 4,
     0x62a61404a040bcdaULL},
    {"NLP.c1", kernels::PrecisionMode::Fp32, 8,
     0xec3efbd417f31ce1ULL},
    {"CV.c1", kernels::PrecisionMode::Fp32, 1,
     0xe27c77fa7cf5ebe3ULL},
    {"CV.c1", kernels::PrecisionMode::Fp32, 2,
     0xb7389a5689c7831aULL},
    {"CV.c1", kernels::PrecisionMode::Fp32, 4,
     0x11818c7988908918ULL},
    {"CV.c1", kernels::PrecisionMode::Fp32, 8,
     0x11818c7988908918ULL},
    {"NLP.c1", kernels::PrecisionMode::Fp16Rne, 1,
     0x69fd55d9981fcd1fULL},
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
