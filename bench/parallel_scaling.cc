/**
 * @file
 * Threaded-executor scaling: throughput vs worker count.
 *
 * Runs the same training configuration on the threaded executor with
 * 1..hardware_concurrency workers and reports real wall-clock
 * throughput next to the simulator's predicted throughput at the
 * same stage count, plus the per-stage busy/gate-wait/idle breakdown
 * the CommitGate makes observable. Every row also cross-checks that
 * the threaded weights equal the simulator's at that worker count —
 * the scaling sweep is simultaneously a reproducibility sweep.
 *
 * NASPIPE_SCALING_CSV=<path> additionally writes the rows as CSV.
 */

#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/csv.h"
#include "common/string_util.h"
#include "common/table.h"
#include "exec/parallel_runtime.h"

using namespace naspipe;

int
main()
{
    int steps = bench::defaultSteps(64);
    // Sweep 1..hardware_concurrency, floored at 4 so constrained
    // machines still exercise a real pipeline (oversubscribed
    // workers are correct, just slower). NASPIPE_SCALING_MAX_WORKERS
    // overrides.
    unsigned hw = std::thread::hardware_concurrency();
    int maxWorkers = bench::positiveEnv(
        "NASPIPE_SCALING_MAX_WORKERS",
        std::max(hw ? static_cast<int>(hw) : 8, 4));
    bench::banner("Threaded CSP executor scaling (NLP.c1, " +
                  std::to_string(steps) + " subnets, up to " +
                  std::to_string(maxWorkers) + " workers)");

    SearchSpace space = makeSpaceByName("NLP.c1");

    std::vector<int> workerCounts;
    for (int w = 1; w <= maxWorkers; w *= 2)
        workerCounts.push_back(w);
    if (workerCounts.back() != maxWorkers)
        workerCounts.push_back(maxWorkers);

    TextTable table({"Workers", "Batch", "Wall", "Subnets/s",
                     "Speedup", "Busy", "Gate wait", "Idle",
                     "Cache hit", "Sim subnets/s", "Bitwise"});
    CsvWriter csv({"workers", "batch", "wall_s", "subnets_per_s",
                   "speedup", "busy_s", "gate_wait_s", "idle_s",
                   "cache_hit_rate", "sim_subnets_per_s",
                   "bitwise"});

    double baseline = 0.0;
    for (int workers : workerCounts) {
        RuntimeConfig config;
        config.system = naspipeSystem();
        config.numStages = workers;
        config.totalSubnets = steps;
        config.seed = 7;

        RunResult sim = runTraining(space, config);
        RunResult thr = runTrainingThreaded(space, config);
        if (sim.oom || thr.oom) {
            std::printf("%d workers: OOM — skipping\n", workers);
            continue;
        }
        if (thr.failed) {
            std::printf("%d workers: %s\n", workers,
                        thr.error.c_str());
            continue;
        }

        const RunMetrics &m = thr.metrics;
        double subnetsPerSec =
            m.wallSeconds > 0.0 ? steps / m.wallSeconds : 0.0;
        if (baseline == 0.0)
            baseline = subnetsPerSec;
        double busy = 0.0, gateWait = 0.0, idle = 0.0;
        for (int s = 0; s < workers; s++) {
            busy += m.perStageBusySec[static_cast<std::size_t>(s)];
            gateWait +=
                m.perStageGateWaitSec[static_cast<std::size_t>(s)];
            idle += m.perStageIdleSec[static_cast<std::size_t>(s)];
        }
        double simSubnetsPerSec =
            sim.metrics.simSeconds > 0.0
                ? steps / sim.metrics.simSeconds
                : 0.0;
        bool bitwise = sim.supernetHash == thr.supernetHash;

        table.addRow(
            {std::to_string(workers), std::to_string(m.batch),
             formatFixed(m.wallSeconds, 3) + "s",
             formatFixed(subnetsPerSec, 0),
             formatFactor(baseline > 0.0
                              ? subnetsPerSec / baseline
                              : 0.0,
                          2),
             formatFixed(busy, 3) + "s",
             formatFixed(gateWait, 3) + "s",
             formatFixed(idle, 3) + "s",
             formatCacheHitRate(m.cacheHitRate),
             formatFixed(simSubnetsPerSec, 0),
             bitwise ? "yes" : "NO"});
        csv.addRow({std::to_string(workers), std::to_string(m.batch),
                    formatFixed(m.wallSeconds, 6),
                    formatFixed(subnetsPerSec, 2),
                    formatFixed(baseline > 0.0
                                    ? subnetsPerSec / baseline
                                    : 0.0,
                                3),
                    formatFixed(busy, 6), formatFixed(gateWait, 6),
                    formatFixed(idle, 6),
                    m.cacheHitRate ? formatFixed(*m.cacheHitRate, 4)
                                   : std::string("NA"),
                    formatFixed(simSubnetsPerSec, 2),
                    bitwise ? "1" : "0"});
        if (!bitwise) {
            std::printf("ERROR: %d-worker weights diverged from the "
                        "simulator\n",
                        workers);
            return 1;
        }
    }
    table.print(std::cout);
    std::printf(
        "\nThe numeric kernels here are %dx%d digest layers, so one\n"
        "subnet is microseconds of math: gate waits and wakeups\n"
        "dominate, and the sweep measures executor overhead (real\n"
        "GPU kernels would swamp it). 'Bitwise' compares the trained\n"
        "weights against the simulator at the same stage count.\n",
        static_cast<int>(kLayerDim), static_cast<int>(kLayerDim));

    if (const char *path = std::getenv("NASPIPE_SCALING_CSV")) {
        if (csv.writeFile(path))
            std::printf("csv written to %s\n", path);
        else
            std::printf("cannot write csv to %s\n", path);
    }
    return 0;
}
