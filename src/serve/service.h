/**
 * @file
 * SearchService — a long-running multi-tenant search front end.
 *
 * The service owns one SharedStagePool and multiplexes N independent
 * supernet searches over it. Clients submit JobSpecs (singly or as a
 * batch), may cancel jobs, and observe per-job status; run() drives
 * every submitted job to a terminal state on the caller's thread
 * (the coordinator).
 *
 * The coordinator loop is the determinism boundary. All
 * order-sensitive decisions go through the JobScheduler:
 *
 *   1. service admission control — Queued jobs become Admitted in
 *      job-ID order whenever the in-flight budget has room for
 *      their window (so the pool's queues can never be oversubscribed
 *      into a deadlock);
 *   2. subnet admission — one subnet per smooth-WRR slot
 *      (ServeJob::pumpOne), repeated until no job is admissible;
 *   3. completion draining — the scheduler commits to a drain
 *      target; completions of other jobs are buffered per job until
 *      their turn, so the *applied* event sequence is a pure
 *      function of (job specs, seeds, schedule) even though arrival
 *      order is thread-raced.
 *
 * A job's last applied completion releases its window and scheduler
 * slot right there, at a point the applied sequence fixes, and hands
 * its post-run search to the JobFinisher. The coordinator installs
 * each finished result (the job goes Done) when it next polls, so
 * Done lands asynchronously; nothing order-sensitive waits for it.
 *
 * The solo threaded executor (runTrainingThreaded) is this service
 * with one in-process job: the same coordinator loop, fault rules
 * and rollback serve one tenant or many. A lone in-process job also
 * sizes the pool's context managers from its own configuration.
 *
 * Fault isolation: a job's fail-stop fault freezes only that job —
 * the coordinator drops its in-flight stragglers (the rollback
 * replays them), rolls the job back to its last drained checkpoint
 * and rebuilds its private gate, while every other tenant keeps
 * training on the untouched shared workers. While a crashed job
 * drains, admissions pause globally (a deterministic freeze window)
 * so the cross-job schedule replays bit-for-bit. Retry exhaustion
 * fails the one job (the per-job exit-5 path); a pool incident (a
 * worker whose task threw, or no completion within the opt-in wall
 * deadline) is a *service* failure and fails every live job.
 */

#ifndef NASPIPE_SERVE_SERVICE_H
#define NASPIPE_SERVE_SERVICE_H

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "obs/metrics_registry.h"
#include "exec/pool.h"
#include "serve/finisher.h"
#include "serve/job.h"
#include "serve/scheduler.h"

namespace naspipe {
namespace serve {

struct ServiceConfig {
    int numStages = 4;  ///< shared pool depth (every job runs on it)
    /**
     * Total in-flight budget across admitted jobs (sum of their
     * windows); Queued jobs wait until a finishing tenant frees
     * room. 0 = unbounded.
     */
    int maxTotalInflight = 0;
    /**
     * Opt-in hang detector: the service fails when no completion
     * arrives within this many seconds while work is in flight.
     * Timing-dependent, hence off by default (0 = off).
     */
    double wallDeadlineSeconds = 0;
    /**
     * Observer of every job-gate commit, as (jobId, layerKey,
     * subnet, chain rank, stage). Called from pool worker threads;
     * must be thread-safe. The determinism-audit tests attach one
     * CspOracle per job here. A text job gets it bound to its ID
     * as RuntimeConfig::commitObserver; an in-process job follows
     * its own RuntimeConfig.
     */
    std::function<void(int, std::uint64_t, SubnetId, std::size_t,
                       int)>
        commitObserver;
    /** Called at a text job's recovery with (jobId, 1-based recovery
     *  count), bound like commitObserver; a live CspOracle resets
     *  its chain cursors here (the job gate was recreated). */
    std::function<void(int, int)> recoveryObserver;
    /**
     * Keep every submitted job's full access history
     * (RuntimeConfig::accessHistory), so a CspOracle can audit each
     * job's log after it finishes. An in-process job follows its own
     * RuntimeConfig.
     */
    bool accessHistory = false;
};

/** Point-in-time public view of one job. */
struct JobStatus {
    int id = 0;
    std::string name;
    JobState state = JobState::Queued;
    int priority = 1;
    int injected = 0;
    int finished = 0;
    int total = 0;
    int recoveries = 0;
    std::uint64_t supernetHash = 0;  ///< valid once Done
    std::string error;               ///< non-empty once Failed
};

class SearchService
{
  public:
    /** run() outcomes, ordered by severity (max wins). */
    enum Outcome {
        AllDone = 0,          ///< every job Done
        JobFailed = 3,        ///< >= 1 job Failed (not retries)
        RetriesExhausted = 5, ///< >= 1 job out of recovery retries
        ServiceFailed = 6,    ///< pool incident; every live job lost
    };

    explicit SearchService(ServiceConfig config);

    SearchService(const SearchService &) = delete;
    SearchService &operator=(const SearchService &) = delete;

    /** @name Client API (thread-safe; usable while run() is live)
     * @{ */
    /**
     * Validate and enqueue one job. Returns the job ID, or -1 with
     * @p why set on a rejected spec / a draining service.
     */
    int submit(const JobSpec &spec, std::string *why = nullptr);

    /**
     * Batched submission: all specs validate or none enqueue, and
     * the batch receives consecutive job IDs in argument order.
     * Returns the IDs, or empty with @p why set.
     */
    std::vector<int> submitBatch(const std::vector<JobSpec> &specs,
                                 std::string *why = nullptr);

    /**
     * Submit one in-process job: the caller's own @p space (must
     * outlive run()) and run @p config, not validated as a JobSpec —
     * the config carries what text cannot (sampler factory, resume
     * path, trace flag, transient faults). Refused (-1, @p why set)
     * when the service already holds a job; once accepted, submit()
     * and submitBatch() are refused, so the job stays alone.
     */
    int submitInProcess(const SearchSpace &space,
                        const RuntimeConfig &config,
                        std::string *why = nullptr);

    /** Request cancellation; false for an unknown job ID. */
    bool cancel(int jobId);

    /** Stop accepting submissions (run() then ends when the last
     *  accepted job terminates). */
    void drain();

    /** Snapshot of every job's status, ascending job ID. */
    std::vector<JobStatus> status() const;
    /** @} */

    /**
     * Drive every job to a terminal state on this thread. Returns
     * the worst Outcome across jobs (ServiceFailed on a pool
     * incident).
     */
    int run();

    /** Post-run introspection (coordinator thread only). */
    const ServeJob *job(int jobId) const;
    /** Move job @p jobId's result out (post-run). */
    RunResult takeResult(int jobId);
    /** The shared pool, joined once run() returned (null before). */
    const SharedStagePool *pool() const { return _pool.get(); }
    const std::string &serviceError() const { return _serviceError; }

    /**
     * Deterministic per-job metrics export: every job's Stable
     * results under "job/<id>/...", plus service aggregates. With
     * @p stableOnly the document is byte-identical across reruns of
     * the same specs (the CI rerun gate). The Timing half adds the
     * wall time, the coordinator's busy time (wall minus its waits
     * for completions and finishes) and the finishers' summed wall
     * time.
     */
    std::string exportMetricsJson(bool stableOnly) const;

  private:
    double elapsed() const;
    /** Whether submissions are refused (fills @p why); _clientMu
     *  held. */
    bool submissionsClosed(std::string *why) const;
    void addJob(std::unique_ptr<ServeJob> job);
    void applyControl();
    void admitQueued();
    /** A job that began finishing: release its window and scheduler
     *  slot and post its search to the finisher. */
    void handOff(ServeJob &job);
    /** Drop job @p job's scheduler slot and admission window. */
    void release(const ServeJob &job);
    /** Install finished results; a finish that threw fails its job
     *  with the exception's message. */
    void installFinished(std::vector<JobFinisher::Finished> done);
    /** Whether any job may still dispatch into the pool. */
    bool poolNeeded() const;
    void progressRecovering();
    bool anyRecovering() const;
    bool allTerminal() const;
    /** Blocking pop + route one pool event; false on a pool
     *  incident or a missed wall deadline (service failure). */
    bool popAndRoute();
    void finalizeJob(ServeJob &job);
    void failService(const std::string &reason);
    void updateStatus();
    ServeJob::PoolHooks hooks(int jobId);
    SharedStagePool::Config poolConfig() const;

    const ServiceConfig _config;

    // Coordinator-owned state.
    std::map<int, std::unique_ptr<ServeJob>> _jobs;
    std::map<int, std::deque<std::shared_ptr<const SubnetRun>>>
        _inbound;  ///< buffered completions awaiting their turn
    std::set<int> _reserved;  ///< jobs holding an admission window
    const ServeJob *_inProcess = nullptr;  ///< the lone in-process job
    JobScheduler _sched;
    std::unique_ptr<SharedStagePool> _pool;
    std::uint64_t _nextTicket = 0;
    long long _admittedWindows = 0;
    bool _serviceFailed = false;
    std::string _serviceError;
    obs::TimePoint _epoch;
    double _wallSeconds = 0.0;  ///< total at run() exit
    double _waitSeconds = 0.0;  ///< coordinator blocked in run()
    double _finishSeconds = 0.0;  ///< finishers' wall, summed

    // Client-facing state (any thread).
    mutable RankedMutex _clientMu{LockRank::ServeClient};
    int _nextJobId = 1;
    bool _draining = false;
    std::vector<std::pair<int, JobSpec>> _pendingSpecs;
    std::unique_ptr<ServeJob> _pendingInProcess;
    bool _holdsInProcess = false;  ///< submissions closed for good
    std::vector<int> _pendingCancels;
    std::vector<JobStatus> _statusSnap;  ///< ascending job ID

    // Declared last: destroyed (joined) first, while the jobs its
    // threads finish are still alive.
    JobFinisher _finisher;
};

} // namespace serve
} // namespace naspipe

#endif // NASPIPE_SERVE_SERVICE_H
