/**
 * @file
 * The benchmark's workloads and one closed-loop repetition of each.
 *
 * A workload is built from the seed alone. A repetition constructs
 * everything from scratch through the public entry points
 * (runTrainingThreaded for the solo workloads, SearchService for the
 * serve workload), runs it to completion and reports what it took:
 * set-up time, the training window on the wall and CPU clocks, and
 * the per-run (per-job) values the correctness check compares.
 */

#ifndef NASPIPE_PERFBENCH_WORKLOADS_H
#define NASPIPE_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/pipeline_runtime.h"
#include "serve/job.h"

#include "probe.h"

namespace perfbench {

struct Workload {
    std::string name;
    bool serve = false;
    int workers = 1;  ///< stage workers (solo) or pool stages (serve)
    /** @name Solo workloads
     * @{ */
    std::string space;
    int subnets = 0;
    int ckptInterval = 0;
    int batch = 0;
    std::uint64_t seed = 0;
    /** @} */
    std::vector<naspipe::serve::JobSpec> jobs;  ///< serve workload
};

/** Workload @p name for @p seed; false on an unknown name. */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  Workload &out);

/** The run configuration of a solo workload. */
naspipe::RuntimeConfig soloConfig(const Workload &w);

/** The run configuration a serve job trains under. */
naspipe::RuntimeConfig jobConfig(const naspipe::serve::JobSpec &spec,
                                 int numStages);

/** One checked run: the solo run, or one serve job. */
struct Unit {
    bool done = false;  ///< reached the expected terminal state
    std::uint64_t hash = 0;
    int violations = 0;
    double finalLoss = 0.0;
    std::uint64_t ckptBytes = 0;
    int ckptCount = 0;
    int recoveries = 0;
    int replayed = 0;
    std::uint64_t gateCommits = 0;
    std::uint64_t accessRecords = 0;

    /** Every logical (timing-independent) field, for exact compare. */
    bool sameCounts(const Unit &o) const;
};

/** One repetition of a workload. */
struct Rep {
    double setupS = 0.0;      ///< start until the first admission
    double resultS = 0.0;     ///< start until results are returned
    double trainWallS = 0.0;  ///< first admission to last completion
    double trainCpuS = 0.0;   ///< process CPU over the same window
    int subnets = 0;          ///< completed, replays excluded
    std::vector<double> jobDoneS;  ///< start until each job's Done
    std::vector<Unit> units;
    bool outcomeOk = false;   ///< run()/RunResult exit state
    double pace = 0.0;        ///< mean of paceLoop() before and after
    double stealShare = 0.0;  ///< busyStealShare() over the repetition
    /** @name Ledger inputs
     * @{ */
    naspipe::RunMetrics metrics;  ///< solo: the run's metrics
    double workerCpuS = 0.0;      ///< serve: pool threads' CPU
    double submitMs = 0.0;        ///< serve: submitBatch call
    /** @} */

    /** Scales this repetition's CPU and set-up times to the nominal
     *  pace. */
    double paceScale() const { return kPaceNominalS / pace; }
    /**
     * Scales this repetition's wall times to a quiet host: the time
     * the hypervisor stole is taken out, and the rest is scaled to
     * the nominal pace.
     */
    double wallScale() const { return (1.0 - stealShare) * paceScale(); }
};

/**
 * One repetition, with the host's steal share measured over it and
 * its pace sampled just before and just after it (all untimed).
 */
Rep runRep(const Workload &w);

} // namespace perfbench

#endif // NASPIPE_PERFBENCH_WORKLOADS_H
