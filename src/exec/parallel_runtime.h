/**
 * @file
 * The CSP schedule on real OS threads.
 *
 * The threaded executor next to PipelineRuntime: instead of a
 * discrete-event simulation of D GPUs, it runs one StageWorker
 * thread per pipeline stage plus a coordinator (the calling thread),
 * and executes the numeric training run with genuine concurrency.
 * The CommitGate enforces the exact causal read/write order CSP
 * proves sequential-equivalent, so for any worker count — and any OS
 * thread interleaving — the trained weights are **bitwise identical**
 * to the simulator's (and hence to sequential training); the
 * equivalence harness in tests/integration/test_parallel_equivalence
 * asserts this on the paper spaces.
 *
 * runTrainingThreaded is the search service (src/serve) with one
 * in-process job: the service's coordinator loop injects, applies
 * completions, checkpoints and rolls back, exactly as it does for
 * each of many tenants. It shares RuntimeConfig and RunResult with
 * the simulator so the two executors are drop-in interchangeable
 * (`naspipe_cli --executor=threads|sim`). The feature matrix of what
 * each executor supports (systems, faults, checkpoint/resume,
 * context cache, oracle hooks) lives in README.md's "Choosing an
 * executor" table; supported() is the programmatic form of that
 * matrix and names the feature in its rejection reason.
 */

#ifndef NASPIPE_EXEC_PARALLEL_RUNTIME_H
#define NASPIPE_EXEC_PARALLEL_RUNTIME_H

#include <string>

#include "runtime/pipeline_runtime.h"

namespace naspipe {

/** The threaded executor's support matrix. */
class ParallelRuntime
{
  public:
    ParallelRuntime() = delete;

    /**
     * Whether @p config can run on the threaded executor; fills
     * @p why (when non-null) with the first rejection reason.
     */
    static bool supported(const RuntimeConfig &config,
                          std::string *why = nullptr);
};

/**
 * Run @p config (numStages == worker threads) on threads: a
 * single-job SearchService over @p space. An unsupported config
 * returns a failed result; a pool incident (a worker died, or hung
 * past the opt-in wall deadline) fails the run with the incident
 * named in the error.
 */
RunResult runTrainingThreaded(const SearchSpace &space,
                              const RuntimeConfig &config);

} // namespace naspipe

#endif // NASPIPE_EXEC_PARALLEL_RUNTIME_H
