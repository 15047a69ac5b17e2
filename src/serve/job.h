/**
 * @file
 * ServeJob — one training run on the shared stage pool.
 *
 * A job is the per-run coordinator core of every threaded run: a
 * tenant of the multi-tenant search service and, as the service's
 * only in-process job, the solo threaded executor
 * (runTrainingThreaded). It wraps everything that must be *private*
 * for per-run bitwise reproducibility and fault isolation: a
 * TrainingSession (sampler, score delivery, checkpoint cadence), a
 * CommitGate (the run's own causal chains — CSP's guarantee is per
 * supernet, so chains never cross jobs), a ParameterStore /
 * NumericExecutor pair, a seeded fault plan and a bounded-retry
 * recovery policy. What it does NOT own is compute: admitted subnets
 * are dispatched into the shared StageWorker pool, tagged with this
 * job's JobBinding so the workers resolve the right gate and
 * executor per task.
 *
 * Lifecycle (the serve state machine):
 *
 *   Queued ──▶ Admitted ──▶ Running ◀──▶ Recovering
 *                │             │  ▲          │
 *                ▼             ▼  │          ▼
 *              Failed       Draining ──▶ Done/Failed
 *
 * Queued jobs hold no pool resources (service-level admission
 * control defers them); Admitted jobs have an initialized session
 * and a reserved in-flight window; Running jobs have subnets in the
 * pipeline; Draining jobs injected everything and await completions;
 * Recovering jobs took a fail-stop fault and are discarding their
 * in-flight stragglers before rolling back to the last drained
 * checkpoint. A job that applied its last completion stays Draining
 * while a finisher thread runs its post-run search (finishing());
 * complete() then makes it Done. Done/Failed are terminal. One job's
 * crash — even its retry exhaustion — only ever touches its own
 * state: the rollback restores the job's private store and rebuilds
 * the job's private gate, while the shared workers never stop
 * serving the neighbors.
 */

#ifndef NASPIPE_SERVE_JOB_H
#define NASPIPE_SERVE_JOB_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/commit_gate.h"
#include "exec/stage_worker.h"
#include "fault/fault_plan.h"
#include "fault/recovery_policy.h"
#include "session/training_session.h"
#include "tensor/kernels/precision.h"

namespace naspipe {
namespace serve {

/** Lifecycle of one search job inside the service. */
enum class JobState {
    Queued,      ///< submitted; no pool resources held yet
    Admitted,    ///< session initialized, in-flight window reserved
    Running,     ///< subnets in the pipeline
    Recovering,  ///< fail-stop taken; draining stragglers, will
                 ///< roll back to the last drained checkpoint
    Draining,    ///< all subnets injected; completions or the
                 ///< post-run search outstanding
    Done,        ///< finished; result available
    Failed,      ///< cancelled, crashed out of retries, or rejected
};

/** Printable state name ("queued", "running", ...). */
const char *jobStateName(JobState state);

/** Whether @p from -> @p to is a legal state-machine edge. */
bool jobTransitionAllowed(JobState from, JobState to);

/** Client-facing description of one search job. */
struct JobSpec {
    std::string name;              ///< display name (default job<id>)
    std::string space = "NLP.c1";  ///< search-space name (Table 1)
    std::uint64_t seed = 7;
    int steps = 32;        ///< subnets to train (totalSubnets)
    int priority = 1;      ///< WRR weight; higher = more slots
    int ckptInterval = 0;  ///< drained-checkpoint cadence (0: off)
    /** Persist drained checkpoints here; on start, a checkpoint
     *  already present at this path resumes the job from it (the
     *  resubmit-after-interruption path — the resumed trajectory is
     *  bitwise the uninterrupted one). */
    std::string ckptPath;
    int recoveryRetries = 3;  ///< consecutive retries before Failed
    int maxInflight = 0;      ///< per-job window cap (0: system)
    /** Numeric storage precision of the job's trajectory. */
    kernels::PrecisionMode precision = kernels::PrecisionMode::Fp32;
    /** Job-scoped fault plan; fail-stop kinds only — a crash poisons
     *  this job's pipeline state, never the shared workers. */
    std::vector<FaultSpec> faults;
};

/**
 * Validate @p spec against the service's pool shape; fills @p why
 * with the first problem. Transient fault kinds are rejected: on a
 * shared pool a stall/degrade would perturb every tenant.
 */
bool validateJobSpec(const JobSpec &spec, std::string *why);

/**
 * Parse a CLI job spec: comma-separated `key=value` pairs with keys
 * name, space, seed, steps, priority, ckpt (interval), ckpt-path,
 * retries, window, precision (fp32|fp16), and repeatable fault
 * (value `KIND@STEP`, KIND crash|drop). Example:
 *
 *   space=NLP.c1,seed=11,steps=32,priority=2,ckpt=8,fault=crash@12
 *
 * Returns false and sets @p why on malformed input.
 */
bool parseJobSpec(const std::string &text, JobSpec &out,
                  std::string *why = nullptr);

/**
 * One tenant: private session/gate/plan/policy, shared compute.
 * All methods are coordinator-thread-only.
 */
class ServeJob : public ExecutionBackend
{
  public:
    /** Pool-side hooks a job dispatches through. */
    struct PoolHooks {
        /** Submit a run into stage 0 of the shared pool. */
        std::function<void(std::shared_ptr<const SubnetRun>)>
            dispatch;
        /** Wake every pool worker (a job-gate commit hook). */
        std::function<void()> wakeAll;
        /**
         * Observer of every commit on this job's gate, as
         * (layerKey, subnet, chain rank, stage) — the per-job
         * CspOracle's live tap. Called from worker threads; must be
         * thread-safe.
         */
        std::function<void(std::uint64_t, SubnetId, std::size_t,
                           int)>
            commitEvent;
        /**
         * Called after each successful recovery with the job's
         * 1-based recovery count. The job gate was recreated, so
         * chains restart at rank 0 — a live CspOracle resets its
         * cursors here.
         */
        std::function<void(int)> recovered;
        /**
         * Apply a transient fault to the pool: a StageStall of stage
         * @p target or a LinkDegrade of link @p target (the link
         * below stage @p target), lasting @p ticks.
         */
        std::function<void(FaultKind, int target, int ticks)> perturb;
        /**
         * Whether this job is the only live one and no submission is
         * pending — then every pool stage idles once it drains.
         */
        std::function<bool()> poolIdle;
    };

    /**
     * A job submitted as text: the named space, run configuration
     * from buildConfig().
     * @param id service-assigned job ID (also the metric namespace)
     * @param spec validated job description
     * @param numStages shared pool depth (== every job's stages)
     * @param accessHistory keep the full access history
     *        (RuntimeConfig::accessHistory)
     */
    ServeJob(int id, JobSpec spec, int numStages,
             bool accessHistory = false);

    /**
     * An in-process job: the caller's own space and configuration
     * (sampler factory, resume path, trace flag, transient faults).
     * @param identity name, space name, seed and steps for status
     *        and metrics
     * @param space must outlive the job
     */
    ServeJob(int id, JobSpec identity, const SearchSpace &space,
             RuntimeConfig config);

    ServeJob(const ServeJob &) = delete;
    ServeJob &operator=(const ServeJob &) = delete;

    /** @name ExecutionBackend (the session calls back into the job)
     * @{ */
    bool canAdmit(SubnetId next) const override;
    void admit(SubnetId id) override;
    void restoreCompleted(SubnetId id) override;
    /** Fail-stop faults flip the job to Recovering; stall and degrade
     *  go to the pool's perturb hook. */
    void applyFault(const DueFault &fault) override;
    /**
     * The width decided when the job began finishing: while other
     * tenants keep the stage pool busy, the search runs on one
     * thread; a lone job borrows the idle stages.
     */
    int searchThreads(int numStages) const override;
    /** @} */

    /**
     * Queued -> Admitted: build this phase's commit gate, initialize
     * the session, resume from config().resumePath when set and
     * pre-materialize the store; a job resumed at its last subnet is
     * finishing() on return. Returns false (and fails the job) when
     * the capacity planner rejects the spec or the resume fails.
     * @p nowSeconds is the service clock (the job's time origin).
     */
    bool start(PoolHooks hooks, double nowSeconds);

    /**
     * Assign the global dispatch ticket of the *next* admitted
     * subnet, then inject it (session.pump(1) -> admit()). The
     * service calls this once per WRR slot.
     */
    bool pumpOne(std::uint64_t ticket);

    /** Whether the session could inject a subnet right now. */
    bool admissible();

    /**
     * Apply one completed subnet: compute the loss, run the session's
     * completion step (record, due faults through applyFault(), the
     * drained checkpoint at a barrier), and start finishing the job
     * when this was the last subnet. @p nowSeconds is the service
     * wall clock.
     */
    void applyCompletion(const std::shared_ptr<const SubnetRun> &run,
                         double nowSeconds);

    /**
     * One straggler of a Recovering job drained (and was dropped).
     * Returns true when the drain is complete and recover() may run.
     */
    bool noteStragglerDropped();

    /**
     * Roll back and rejoin: charge the retry policy (exhaustion
     * fails the job — the per-job exit-5 path), rebuild the gate,
     * re-init the session, restore the last drained checkpoint and
     * replay the sampler. Neighbors are untouched by construction:
     * everything rebuilt here is job-private.
     */
    bool recover(double nowSeconds);

    /** Cancel: Queued jobs fail immediately; live jobs drain their
     *  in-flight stragglers first (dropped, like a fail-stop), then
     *  fail without recovery. A finishing job ignores it and ends
     *  Done. */
    void requestCancel();
    bool cancelRequested() const { return _cancelRequested; }

    /** Mark Draining once everything is injected (status cosmetics;
     *  the admission gates already stop the pump). */
    void refreshDrainState();

    /**
     * Whether the last completion was applied (or start() resumed
     * at the end) and the post-run search is still to run: the job
     * dispatches nothing more, holds no pool resources and ignores
     * cancels.
     */
    bool finishing() const { return _finishing; }

    /**
     * The post-run search (TrainingSession::collect) at the width and
     * clock fixed when the job began finishing. Safe on any one
     * thread while the job is finishing: it touches only the job's
     * session, which nothing else uses by then.
     */
    RunResult collectResult();

    /** Install collectResult()'s @p result and go Done. */
    void complete(RunResult result);

    /** Collect the run result (valid once Done or Failed). */
    const RunResult &result() const { return _result; }
    /** Move the run result out (post-run). */
    RunResult takeResult() { return std::move(_result); }

    /** Terminal-failure record. */
    void fail(const std::string &reason);

    /** @name Introspection
     * @{ */
    int id() const { return _id; }
    const JobSpec &spec() const { return _spec; }
    JobState state() const { return _state; }
    bool terminal() const
    {
        return _state == JobState::Done ||
               _state == JobState::Failed;
    }
    const std::string &error() const { return _error; }
    bool retriesExhausted() const { return _retriesExhausted; }
    const SearchSpace &space() const { return _space; }
    const RuntimeConfig &config() const { return _config; }
    TrainingSession &session() { return _session; }
    const TrainingSession &session() const { return _session; }
    /** Reserved in-flight window (admission-control accounting). */
    int window() const;
    int recoveries() const { return _session.recoveries(); }
    int subnetsReplayed() const
    {
        return _session.subnetsReplayed();
    }
    int pendingDrain() const { return _pendingDrain; }
    /** Global tickets of the first and the latest admitted subnet
     *  (both 0 before the first admission). */
    std::uint64_t firstTicket() const { return _firstTicket; }
    std::uint64_t lastTicket() const { return _nextTicket; }
    std::uint64_t supernetHash() const
    {
        return _result.supernetHash;
    }
    /** @} */

  private:
    void setState(JobState next);
    void rebuildGate();
    void beginFailStop(const std::string &reason, int stage);
    void finish(double nowSeconds);

    const int _id;
    const JobSpec _spec;

    // Declaration order matters: the session holds references to the
    // space and the config, so both must outlive (= precede) it.
    std::unique_ptr<const SearchSpace> _ownedSpace;  ///< text jobs
    const SearchSpace &_space;
    RuntimeConfig _config;
    TrainingSession _session;

    JobState _state = JobState::Queued;
    std::string _error;
    bool _retriesExhausted = false;
    bool _cancelRequested = false;

    // Phase-scoped causal chains (rebuilt on every recovery).
    std::unique_ptr<CommitGate> _gate;
    JobBinding _binding;
    PoolHooks _hooks;
    std::uint64_t _nextTicket = 0;
    std::uint64_t _firstTicket = 0;

    fault::RecoveryPolicy _policy;
    bool _failStopPending = false;
    std::string _failStopReason;
    int _failStopStage = 0;  ///< victim stage (Recovery trace record)
    int _pendingDrain = 0;  ///< stragglers left to drop (Recovering)

    double _startedAt = 0.0;   ///< service clock at start()
    double _phaseStart = 0.0;  ///< service clock at this phase's start

    // Fixed when the job begins finishing (coordinator thread).
    bool _finishing = false;
    double _finishRunSeconds = 0.0;   ///< offset-inclusive run total
    double _finishWallSeconds = 0.0;  ///< service clock since start()
    int _searchWidth = 1;
    RunResult _result;
};

} // namespace serve
} // namespace naspipe

#endif // NASPIPE_SERVE_JOB_H
