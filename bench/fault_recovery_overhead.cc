/**
 * @file
 * Fault-recovery overhead: checkpoint interval vs lost work.
 *
 * Sweeps the checkpoint interval for a run that suffers one GPU
 * crash and reports the classic recovery trade-off: frequent
 * checkpoints cost write time on every boundary, sparse checkpoints
 * cost replayed subnets on every failure. Every row terminates with
 * the same supernet weights — the recovery path never trades
 * reproducibility for speed.
 *
 * `--executor threads` runs the same sweep on the threaded executor
 * (one stage worker per stage, in-place recovery) instead of the
 * simulator; the bitwise column then certifies that real-thread
 * recovery lands on the same weights too.
 */

#include <cstring>
#include <iostream>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table.h"
#include "exec/parallel_runtime.h"

using namespace naspipe;

int
main(int argc, char **argv)
{
    bool threaded = false;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--executor") == 0 &&
            i + 1 < argc) {
            threaded = std::strcmp(argv[i + 1], "threads") == 0;
            i++;
        }
    }
    int steps = bench::defaultSteps(64);
    bench::banner(
        "Fault recovery: checkpoint interval vs lost work "
        "(NLP.c2, 8 GPUs, one GPU crash at step " +
        std::to_string(3 * steps / 4) + " of " +
        std::to_string(steps) + ", executor " +
        (threaded ? "threads" : "sim") + ")");

    SearchSpace space = makeSpaceByName("NLP.c2");

    RuntimeConfig base;
    base.system = naspipeSystem();
    base.numStages = 8;
    base.totalSubnets = steps;
    base.seed = 7;

    auto run = [&](const RuntimeConfig &config) {
        return threaded ? runTrainingThreaded(space, config)
                        : runTraining(space, config);
    };

    RunResult faultFree = run(base);
    if (faultFree.oom) {
        std::printf("NLP.c2 does not fit on 8 GPUs — skipping\n");
        return 0;
    }
    std::printf("fault-free   %.2fs simulated, weights %016llx\n\n",
                faultFree.metrics.simSeconds,
                static_cast<unsigned long long>(
                    faultFree.supernetHash));

    FaultSpec crash;
    crash.kind = FaultKind::GpuCrash;
    crash.atStep = 3 * steps / 4;
    crash.stage = 2;

    TextTable table({"Interval", "Ckpts", "Ckpt bytes",
                     "Ckpt time", "Replayed", "Lost compute",
                     "Sim time", "Overhead", "Bitwise"});
    for (int interval : {0, 4, 8, 16, 32}) {
        RuntimeConfig config = base;
        config.ckptInterval = interval;
        config.faults = {crash};
        RunResult result = run(config);
        if (result.failed) {
            std::printf("interval %d failed: %s\n", interval,
                        result.error.c_str());
            continue;
        }
        const RunMetrics &m = result.metrics;
        double overhead =
            m.simSeconds / faultFree.metrics.simSeconds - 1.0;
        table.addRow({
            interval == 0 ? "none" : std::to_string(interval),
            std::to_string(m.checkpointsWritten),
            m.checkpointsWritten
                ? formatBytes(m.checkpointBytes)
                : "-",
            formatFixed(m.checkpointSeconds, 3) + "s",
            std::to_string(m.subnetsReplayed),
            formatFixed(m.lostComputeSeconds, 2) + "s",
            formatFixed(m.simSeconds, 2) + "s",
            formatPercent(overhead),
            result.supernetHash == faultFree.supernetHash ? "yes"
                                                          : "NO",
        });
    }
    table.print(std::cout);
    std::printf(
        "\nEvery interval recovers to the fault-free weights; the\n"
        "interval only moves cost between checkpoint writes and\n"
        "replayed subnets (interval `none` restarts from subnet 0).\n");
    return 0;
}
