/**
 * @file
 * The pipeline runtime: executes one supernet training run of any
 * SystemModel (NASPipe, GPipe, PipeDream, VPipe or an ablation) over
 * the simulated cluster, driving the numeric training engine in the
 * exact interleaving the schedule produces.
 *
 * This is Algorithm 1 as an event-driven simulation: stages dispatch
 * tasks when their GPU frees, forward activations and backward
 * gradients travel over the stage links, the context manager swaps
 * layer parameters guided by the predictor, and every parameter READ
 * and WRITE lands on the shared ParameterStore so the run's training
 * result is a real, bitwise-comparable set of weights.
 */

#ifndef NASPIPE_RUNTIME_PIPELINE_RUNTIME_H
#define NASPIPE_RUNTIME_PIPELINE_RUNTIME_H

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "hw/cluster.h"
#include "memory/swap_model.h"
#include "obs/run_observations.h"
#include "partition/mirror.h"
#include "partition/partitioner.h"
#include "partition/placement.h"
#include "runtime/metrics.h"
#include "fault/fault_plan.h"
#include "schedule/bsp_scheduler.h"
#include "schedule/scheduler.h"
#include "sim/trace.h"
#include "supernet/sampler.h"
#include "train/convergence.h"
#include "train/numeric_executor.h"

namespace naspipe {

/** Configuration of one training run. */
struct RuntimeConfig {
    SystemModel system;
    int numStages = 8;         ///< pipeline depth D == GPU count
    int totalSubnets = 64;     ///< training steps (one batch each)
    int batch = 0;             ///< 0: derive from the capacity planner
    std::uint64_t seed = 7;    ///< master seed (sampler, init, data)
    bool numeric = true;       ///< drive the numeric training engine
    bool traceEnabled = false; ///< record the task timeline
    bool evolutionSearch = false;  ///< evolution sampler (else SPOS)
    /**
     * Hybrid multi-space traversal (§5.5): > 0 explores that many
     * sub-search-spaces simultaneously via HybridSampler (requires a
     * space with a skip candidate). Overrides evolutionSearch.
     */
    int hybridStreams = 0;
    /**
     * Custom exploration frontend: when set, the runtime retrieves
     * its subnet stream from this factory's sampler instead of the
     * built-in ones (the Retiarii-frontend role of §3.1). Overrides
     * hybridStreams and evolutionSearch. The factory is called once
     * per run with the space and the run's master seed; determinism
     * is the sampler's responsibility.
     */
    std::function<std::unique_ptr<SubnetSampler>(
        const SearchSpace &, std::uint64_t)>
        samplerFactory;
    /**
     * Logical feedback lag for feedback-driven samplers (evolution):
     * subnet i is not retrieved until the scores of all subnets
     * <= i - lag have been delivered. This makes the sampler's view
     * a pure function of (seed, losses-by-ID) — independent of GPU
     * count and completion timing — extending Definition 1's
     * reproducibility to feedback-driven search. 0 picks the default
     * (32 when evolutionSearch, disabled otherwise); negative
     * disables explicitly.
     */
    int feedbackLag = 0;
    SgdConfig sgd;
    /**
     * Storage precision of the numeric trajectory (see
     * tensor/kernels/precision.h). Both modes are bitwise-specified;
     * each has its own golden hashes. A checkpoint resumes only under
     * the precision that produced it.
     */
    kernels::PrecisionMode precision = kernels::PrecisionMode::Fp32;
    /**
     * Keep the full per-layer access history (AccessLog::
     * layerHistory) besides the streamed causal verdict. Off by
     * default: the history grows with every access and rides in
     * every checkpoint. Table 4's rendering and the CspOracle's
     * post-run audit need it (naspipe_cli --verify-csp turns it on);
     * a run that keeps it resumes only from a checkpoint that has it.
     */
    bool accessHistory = false;

    /** @name Fault injection and recovery
     * Deterministic fault plan plus the checkpoint/recovery knobs.
     * Fail-stop faults (crash/drop) freeze the run, roll back to the
     * last drained checkpoint, and replay the lost subnets in CSP
     * order; transient faults (stall/degrade) only perturb timing.
     * @{ */
    std::vector<FaultSpec> faults;  ///< fires on completion count
    /**
     * Write a run checkpoint every this many completed subnets, at a
     * pipeline-drain barrier (injection pauses at the boundary so no
     * subnet is in flight). 0 disables mid-run checkpointing — a
     * fail-stop fault then restarts training from subnet 0.
     */
    int ckptInterval = 0;
    std::string ckptPath;    ///< also persist checkpoints here
    std::string resumePath;  ///< start from this checkpoint file
    /**
     * Consecutive recoveries (no completed subnet in between) before
     * the run gives up; the CLI maps exhaustion to exit code 5.
     */
    int recoveryMaxRetries = 3;
    /**
     * Arm the wall-clock hang deadline (threaded executor only): the
     * run fails when no subnet completes for 30 s while work is in
     * flight. A dying worker fails the run regardless; the deadline
     * is opt-in because it is timing-dependent — the CLI enables it
     * with --obs-wall.
     */
    bool wallWatchdog = false;
    /**
     * Called once per rollback, on either executor, with the 1-based
     * recovery count: the run's TrainingSession calls it right after
     * rebuilding the commit gate, before the restore and before the
     * phase resumes. The new gate's per-layer chains restart at rank
     * 0, so a live CspOracle attached via commitObserver must reset
     * its chain cursors here (CspOracle::resetLiveChains).
     */
    std::function<void(int)> recoveryObserver;
    /** @} */

    /**
     * Observer of every CommitGate commit, called from worker threads
     * as (layerKey, committing subnet, chain rank, stage). The run's
     * TrainingSession attaches it to each phase's gate, on either
     * executor; the simulator's gate commits only under CSP, the one
     * policy that reads its write visibility. The
     * determinism audit layer's CspOracle attaches here to check
     * commit monotonicity live. Must be thread-safe.
     */
    std::function<void(std::uint64_t, SubnetId, std::size_t, int)>
        commitObserver;
};

/** Everything a run produces. */
struct RunResult {
    bool oom = false;          ///< capacity planner rejected the run
    bool failed = false;       ///< run aborted (bad resume, etc.)
    /** Failed because recovery retries ran out (CLI exit 5). */
    bool retriesExhausted = false;
    std::string error;         ///< diagnostic when failed
    CapacityPlan plan;
    RunMetrics metrics;
    std::vector<ConvergencePoint> curve;
    std::map<SubnetId, float> losses;  ///< per-subnet training loss
    std::vector<Subnet> sampled;       ///< subnets in sequence order
    /** Per-subnet stage partitions, parallel to sampled — the other
     *  half of the schedule the logical-mode observability layer
     *  reconstructs timelines from. */
    std::vector<SubnetPartition> partitions;
    /** Threaded executor's wall-mode stage observations (empty for
     *  simulated runs). Timing-stability data; see src/obs/. */
    obs::RunObservations observations;
    SubnetId bestSubnet = -1;          ///< post-training search winner
    double searchAccuracy = 0.0;
    std::uint64_t supernetHash = 0;    ///< bitwise weight fingerprint
    std::shared_ptr<ParameterStore> store;  ///< weights + access log
    std::shared_ptr<Trace> trace;      ///< when traceEnabled
};

/**
 * Runs one training simulation.
 */
class PipelineRuntime
{
  public:
    /**
     * @param space the search space (must outlive the runtime)
     * @param config run configuration
     */
    PipelineRuntime(const SearchSpace &space,
                    const RuntimeConfig &config);

    ~PipelineRuntime();

    PipelineRuntime(const PipelineRuntime &) = delete;
    PipelineRuntime &operator=(const PipelineRuntime &) = delete;

    /** Execute the run to completion and collect the results. */
    RunResult run();

  private:
    struct Impl;
    std::unique_ptr<Impl> _impl;
};

/** Convenience wrapper: configure and run in one call. */
RunResult runTraining(const SearchSpace &space,
                      const RuntimeConfig &config);

} // namespace naspipe

#endif // NASPIPE_RUNTIME_PIPELINE_RUNTIME_H
