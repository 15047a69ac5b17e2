/**
 * @file
 * TrainingSession: the runtime-agnostic coordinator core.
 *
 * Every executor — the discrete-event simulator (PipelineRuntime)
 * and each job on the real thread pool (ServeJob, which solo
 * threaded runs use too) — needs
 * the same coordinator: draw subnets in sequence order, gate
 * injection on the in-flight limit / feedback lag / checkpoint drain
 * barrier, deliver quality scores to the sampler in sequence-ID
 * order, take drained checkpoints, replay a checkpoint on resume or
 * after a fail-stop fault, and assemble the shared half of
 * RunMetrics. That logic is *exactly* the part of NASPipe that makes
 * a run a pure function of (seed, scores-by-ID) (Definition 1), so
 * duplicating it is a reproducibility hazard: any drift between
 * copies silently breaks the bitwise sim ≡ threads ≡ serve
 * equivalence the test suite asserts.
 *
 * TrainingSession owns that logic once. An executor plugs in behind
 * the small ExecutionBackend interface: it is handed each freshly
 * sampled subnet (admit), each checkpoint-restored subnet
 * (restoreCompleted), and may veto injection (canAdmit — the
 * simulator's BSP bulk barrier). Everything the executor does between
 * admit() and recordCompletion() — simulated events or real worker
 * threads — is its own business; the session only requires that
 * completions are reported once per subnet with a deterministic loss.
 *
 * Checkpoints are taken at pipeline-drain barriers (injection pauses
 * at nextCkptAt, so finished == nextCkptAt implies inflight == 0).
 * At a drained barrier the entire training state is a pure function
 * of the completed count under CSP, which is why a checkpoint written
 * by one executor resumes bitwise-identically on the other.
 */

#ifndef NASPIPE_SESSION_TRAINING_SESSION_H
#define NASPIPE_SESSION_TRAINING_SESSION_H

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "runtime/pipeline_runtime.h"
#include "train/run_checkpoint.h"

namespace naspipe {

/**
 * A fault-plan spec that fell due, resolved once onto a pipeline of
 * D stages for every executor.
 */
struct DueFault {
    FaultSpec spec;
    int stage = 0;  ///< spec.stage clamped to [0, D - 1]
    /** The link a link fault hits, between stages link and link + 1:
     *  min(stage, D - 2). */
    int link = 0;
    bool failStop = false;  ///< the run must roll back
};

/**
 * What an executor must provide to run under a TrainingSession. All
 * calls arrive on the coordinator thread.
 */
class ExecutionBackend
{
  public:
    virtual ~ExecutionBackend() = default;

    /**
     * Extra injection gating before subnet @p next is drawn (the
     * simulator's BSP bulk barrier). Default: always admit.
     */
    virtual bool
    canAdmit(SubnetId next) const
    {
        (void)next;
        return true;
    }

    /**
     * Take ownership of executing subnet @p id. Called after the
     * session has recorded the subnet and partition (subnetOf /
     * partitionOf are valid) and opened its numeric context, so the
     * backend may register dependencies and dispatch immediately.
     */
    virtual void admit(SubnetId id) = 0;

    /**
     * Note that subnet @p id was completed by the checkpointed run
     * being restored: advance whatever executor-local frontiers need
     * to skip past it. The restored store already holds its weight
     * updates; the backend must NOT re-execute anything.
     */
    virtual void restoreCompleted(SubnetId id) = 0;

    /**
     * Map a due fault onto the executor: the simulator's hardware
     * models, or a job's fail-stop or pool perturbation. Called by
     * TrainingSession::applyCompletion() for each applicable fault,
     * in plan order, after the session logged and traced it.
     * Default: panic, for a backend that runs no fault plan.
     */
    virtual void applyFault(const DueFault &fault);

    /**
     * Threads collect()'s post-run search may fan candidates out
     * over. collect() runs after the executor drained, so by default
     * the search borrows one thread per idle stage plus the
     * coordinator's own. A backend whose stages are not idle cores
     * — the simulator's modelled GPUs, a serve job whose pool still
     * serves other tenants — returns 1. The search result is the
     * same at any count.
     */
    virtual int
    searchThreads(int numStages) const
    {
        return numStages + 1;
    }
};

/**
 * The shared coordinator: sampling/injection order, score delivery,
 * checkpoint cadence, resume/replay, fail-stop rollback, fault
 * accounting, and metrics assembly.
 */
class TrainingSession
{
  public:
    /** What applyCompletion() did after recording the completion. */
    struct Step {
        /** A fail-stop fault fired: no checkpoint was taken, and the
         *  executor rolls back. */
        bool failStop = false;
        bool checkpointed = false;  ///< committed a barrier checkpoint
        double ckptWriteSeconds = 0.0;  ///< its modeled write time
    };

    /** What one rollback() rewound: completed counts at the crash and
     *  at the restored checkpoint (0 when none was taken yet). */
    struct Rollback {
        int fromCompleted = 0;
        int toCompleted = 0;
    };

    /**
     * @param space the search space (must outlive the session)
     * @param config run configuration (shared with the executors)
     */
    TrainingSession(const SearchSpace &space,
                    const RuntimeConfig &config);

    TrainingSession(const TrainingSession &) = delete;
    TrainingSession &operator=(const TrainingSession &) = delete;

    /** Attach the executor; required before pump()/restore(). */
    void attach(ExecutionBackend *backend) { _backend = backend; }

    /**
     * (Re)initialize one run phase: plan capacity, build the sampler
     * / store / numeric executor / trace, and clear the per-run state
     * (the record table included). Cumulative diagnostics (checkpoint
     * totals, time offsets, fault counters) survive — rollback()
     * re-inits the session without losing them. Returns false when the capacity
     * planner rejects the run (plan() still reports the attempt).
     */
    bool initRun();

    /**
     * Inject as many subnets as every gate allows: the in-flight
     * limit, the checkpoint drain barrier, the backend's own veto,
     * and the feedback lag. Each injected subnet is handed to the
     * backend via admit(). Returns the number injected.
     */
    int pump();

    /**
     * As pump(), but injects at most @p maxCount subnets. The serve
     * layer's cross-job scheduler admits one subnet per scheduling
     * slot (pump(1)) so a weighted round-robin over jobs decides the
     * global interleaving instead of each job greedily filling its
     * window.
     */
    int pump(int maxCount);

    /**
     * Whether pump() would inject at least one subnet right now —
     * the same gate checks (injection budget, in-flight window,
     * checkpoint drain barrier, backend veto, feedback lag) without
     * admitting anything. Not const: due scores are delivered to the
     * sampler, exactly as pump() would before drawing — delivery is
     * uniquely determined by sequence ID, so probing never perturbs
     * the deterministic draw order.
     */
    bool admissible();

    /**
     * Record subnet @p id's completion at absolute time @p atSeconds
     * with training loss @p loss: updates the counters and @p id's
     * entry in the record table, and delivers due scores right away
     * when the feedback lag is 0. Returns true when this completion
     * reached a drained checkpoint barrier — the caller should then
     * build and commit a checkpoint before pumping again.
     */
    bool recordCompletion(SubnetId id, float loss, double atSeconds);

    /**
     * The completion step of every executor. In order: record subnet
     * @p id's completion with loss @p loss, @p phaseSeconds into this
     * run phase; resolve each fault now due on the completed-count
     * clock to a DueFault and hand it to the backend's applyFault()
     * (a link fault on a one-stage pipeline is inapplicable: logged
     * and traced only); then, unless a fail-stop fired, build and
     * commit the checkpoint when this completion reached a drained
     * barrier. @p phaseBusySeconds is the executor's busy time in
     * this phase (0 when it models none); the checkpoint adds the
     * offsets to both times. Besides a checkpoint, it allocates
     * nothing unless a fault is due.
     */
    Step applyCompletion(SubnetId id, float loss, double phaseSeconds,
                         double phaseBusySeconds);

    /** @name Feedback-lag-exact score delivery
     * @{ */
    int effectiveFeedbackLag() const;
    void deliverScoresBelow(SubnetId maxIdExclusive);
    /** @} */

    /** @name Drained-checkpoint cadence
     * @{ */
    bool ckptEnabled() const { return _config.ckptInterval > 0; }
    int ckptStride() const;
    int boundaryAfter(int completedCount) const;

    /**
     * Snapshot the drained run state. @p nowSeconds / @p busySeconds
     * are absolute (offset-inclusive) run totals at the barrier.
     */
    RunCheckpoint buildCheckpoint(double nowSeconds,
                                  double busySeconds) const;

    /**
     * Account and persist @p ckpt: serialize it as the in-memory
     * rollback target, write the on-disk copy when configured, and
     * advance the next barrier. Aborts unless the pipeline is
     * drained. Returns the modeled write seconds (checkpoint bytes
     * over a modeled 2 GB/s, plus 1 ms) the caller may charge.
     */
    double commitCheckpoint(const RunCheckpoint &ckpt);

    /**
     * Rebuild the run state from @p ckpt: load the store and access
     * log, refill the record table, and replay the sampler with
     * feedback-lag-faithful score delivery so it draws the exact
     * subnet sequence the checkpointed run drew. The
     * backend sees restoreCompleted() for every restored subnet.
     * Returns false on an incompatible or unreadable checkpoint.
     */
    bool restore(const RunCheckpoint &ckpt);

    /**
     * Resume from the checkpoint file at @p path: restore() it and
     * adopt the producing run's time offsets and checkpoint count.
     * Call after initRun() and after the backend is ready for
     * restoreCompleted(). Returns false (with a logged reason) on an
     * unreadable or incompatible file.
     */
    bool resume(const std::string &path);

    /** Serialized last checkpoint (fail-stop rollback target). */
    const std::string &lastCheckpoint() const { return _lastCkpt; }
    /** @} */

    /** @name Fail-stop rollback
     * @{ */
    /**
     * Roll the run back to the last drained checkpoint (subnet 0
     * when none was taken): charge the fault counters, initRun(),
     * let @p rebuildPhase rebuild the executor's phase state, then
     * restore the checkpoint and move the clock to the crash plus
     * the downtime. @p secAtCrash / @p busyAtCrash are absolute run
     * totals at the crash. The downtime is a modeled 5 s of
     * detection + restart plus @p extraDowntimeSeconds, the caller's
     * own charge (a retry backoff). The replayed
     * subnets re-execute in CSP order, so the run lands on the
     * fault-free bits. Empty when re-init or restore fails.
     */
    std::optional<Rollback>
    rollback(double secAtCrash, double busyAtCrash,
             double extraDowntimeSeconds,
             const std::function<void()> &rebuildPhase);

    const FaultInjector &faults() const { return _injector; }
    int recoveries() const { return _recoveries; }
    int subnetsReplayed() const { return _subnetsReplayed; }
    /** @} */

    /**
     * Assemble the executor-independent half of the result: plan,
     * losses, sampled subnets (moved out: the run ends here, and
     * subnetOf()/partitionOf() assert from now until the next
     * initRun()), store, trace, throughput, memory
     * plan figures, checkpoint accounting, the trailing-window final
     * loss and the convergence curve (both from the record table;
     * the table survives, so buildCheckpoint() still works after),
     * the supernet hash, the causal audit, the fault counters, and
     * the post-training search (on the attached backend's
     * searchThreads()).
     * @p totalSeconds and @p busyTotal are absolute run totals; the
     * executor then fills in its own timing and cache specifics.
     */
    RunResult collect(double totalSeconds, double busyTotal);

    /** @name Run state accessors
     * @{ */
    const CapacityPlan &plan() const { return _plan; }
    int batch() const { return _batch; }
    const ActivationModel &activationModel() const
    {
        return _activation;
    }
    const std::shared_ptr<ParameterStore> &store() const
    {
        return _store;
    }
    NumericExecutor &exec() { return *_exec; }
    const std::shared_ptr<Trace> &trace() const { return _trace; }

    const Subnet &subnetOf(SubnetId id) const;
    const SubnetPartition &partitionOf(SubnetId id) const;
    /** Stage @p stage's block range under @p id's partition. */
    std::pair<int, int> blockRange(int stage, SubnetId id) const;

    int injected() const { return _injected; }
    int finished() const { return _finished; }
    int inflight() const { return _inflight; }
    int totalSubnets() const { return _config.totalSubnets; }
    int nextCkptAt() const { return _nextCkptAt; }
    double secOffset() const { return _secOffset; }
    double busyOffset() const { return _busyOffset; }
    /** @} */

  private:
    bool compatible(const RunCheckpoint &ckpt) const;
    /**
     * restore() from @p sections; the rollback target is left to the
     * caller unless @p ckpt is older than the current format.
     */
    bool restoreState(const RunCheckpoint &ckpt,
                      const RunCheckpoint::Sections &sections);
    /** Carry run time across phases (rollback) or from a resume. */
    void setTimeOffsets(double secOffset, double busyOffset);

    const SearchSpace &_space;
    const RuntimeConfig &_config;
    SystemModel _model;
    int _numStages;
    ActivationModel _activation;
    double _scoreScale;
    ExecutionBackend *_backend = nullptr;

    CapacityPlan _plan;
    int _batch = 1;

    std::unique_ptr<SubnetSampler> _sampler;
    std::unique_ptr<Partitioner> _partitioner;
    std::shared_ptr<ParameterStore> _store;
    std::unique_ptr<NumericExecutor> _exec;
    std::shared_ptr<Trace> _trace;

    // Sequence IDs are consecutive from 0, so position == ID; each
    // vector has one entry per injected or restored subnet.
    std::vector<Subnet> _subnets;
    std::vector<SubnetPartition> _partitions;
    bool _collected = false;  ///< collect() moved both out
    /// The one home of a completed subnet's loss and completion
    /// time: checkpoints, score delivery, the final loss and the
    /// curve all read it.
    std::vector<SubnetRecord> _records;
    /// Scores below this ID are delivered; it walks _records.
    SubnetId _nextScoreToReport = 0;

    int _injected = 0;
    int _finished = 0;
    int _inflight = 0;

    // Checkpoint state. Offsets and the written/bytes/seconds totals
    // are cumulative across recovery phases.
    int _nextCkptAt = 0;
    double _secOffset = 0.0;
    double _busyOffset = 0.0;
    std::string _lastCkpt;
    int _checkpointsWritten = 0;
    std::uint64_t _checkpointBytes = 0;
    double _checkpointSecondsTotal = 0.0;

    // Fault state, cumulative across rollbacks.
    FaultInjector _injector;
    int _recoveries = 0;
    int _subnetsReplayed = 0;
    double _recoverySeconds = 0.0;
    double _lostComputeSeconds = 0.0;
};

} // namespace naspipe

#endif // NASPIPE_SESSION_TRAINING_SESSION_H
