/**
 * @file
 * One OS thread per pipeline stage.
 *
 * A StageWorker owns a bounded MPSC inbox fed by the upstream stage
 * (forward activations), the downstream stage (backward gradients)
 * and the coordinator (fresh subnets into stage 0). Its scheduling
 * loop is Algorithm 1 re-expressed for real threads:
 *
 *   - backward tasks always run first (they release dependencies);
 *   - among forward candidates, run the lowest-sequence-ID one whose
 *     stage-local shared layers are all readable per the CommitGate
 *     (Algorithm 2's SCHEDULE());
 *   - a forward that is not yet readable is *deferred*, never blocked
 *     on, so a worker with runnable work is never wedged behind an
 *     unsatisfied dependency — the liveness argument is that the
 *     globally lowest unfinished subnet only depends on finished
 *     subnets, hence is always runnable wherever its token sits.
 *
 * Workers never touch the sampler, the partitioner, the gate's layer
 * table or each other's state: a task carries an immutable, shared
 * SubnetRun (subnet, partition, gate claims), and all cross-thread
 * parameter visibility goes through the CommitGate's acquire/release
 * commits.
 */

#ifndef NASPIPE_EXEC_STAGE_WORKER_H
#define NASPIPE_EXEC_STAGE_WORKER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/lock_rank.h"
#include "exec/commit_gate.h"
#include "exec/task_queue.h"
#include "memory/context_manager.h"
#include "obs/run_observations.h"
#include "obs/wall_clock.h"
#include "partition/partitioner.h"
#include "sim/trace.h"
#include "supernet/subnet.h"
#include "train/numeric_executor.h"

namespace naspipe {

/**
 * Per-job execution context of a pool task.
 *
 * A StageWorker serves tasks from one or many independent search
 * jobs; each job owns its own commit gate (causal chains), numeric
 * executor and parameter store. A task resolves those through the
 * binding its SubnetRun carries — the solo threaded executor binds
 * its single run the same way. The binding is immutable while any
 * of its tasks is in flight and must outlive them.
 */
struct JobBinding {
    int jobId = 0;
    const SearchSpace *space = nullptr;
    CommitGate *gate = nullptr;
    NumericExecutor *exec = nullptr;
};

/** Immutable per-subnet execution record shared by every stage. */
struct SubnetRun {
    Subnet subnet;
    SubnetPartition partition;
    /**
     * Gate claims of the parameterized layers, grouped by owning
     * stage (claims[s] in block order): what
     * TrainingSession::registerClaims() returned when the coordinator
     * admitted the subnet. They point into job->gate, which the
     * job's session replaces only in the rollback of
     * ServeJob::recover(), after asserting that every run of the
     * crashed phase has drained (_pendingDrain == 0) — so no claim
     * outlives its gate.
     */
    std::vector<std::vector<CommitGate::Claim>> claims;
    /** Owning job (required: the pool rejects unbound runs). */
    const JobBinding *job = nullptr;
    /**
     * Global dispatch ticket: the cross-job priority the forward
     * queues sort by. The serve scheduler assigns tickets in its
     * deterministic admission order; single-tenant runtimes set
     * ticket = sequence ID, so ticket order is exactly Algorithm 2's
     * lowest-ID-first order and nothing changes for them.
     */
    std::uint64_t ticket = 0;
};

/** A pipeline token travelling between stage workers. */
struct ExecTask {
    enum class Kind { Forward, Backward };
    Kind kind = Kind::Forward;
    std::shared_ptr<const SubnetRun> run;
};

/** Per-worker context-management knobs (mirrors the sim's Stage). */
struct StageContextConfig {
    MemoryMode mode = MemoryMode::AllResident;
    bool predictor = false;  ///< Algorithm-3 prediction enabled
    std::uint64_t budgetBytes = 0;  ///< §4.2 cap; 0 = unlimited
};

/**
 * The worker thread of one pipeline stage.
 */
class StageWorker
{
  public:
    /** Wall-clock accounting of one worker (read after join()). */
    struct Stats {
        double busySec = 0.0;      ///< executing forward/backward
        double gateWaitSec = 0.0;  ///< candidates present, none ready
        double idleSec = 0.0;      ///< no candidates at all
        std::uint64_t forwards = 0;
        std::uint64_t backwards = 0;
        std::uint64_t deferrals = 0;  ///< fwd scans that found nothing
        std::uint64_t idleWakeups = 0;  ///< sleeps with empty queues
    };

    using ContextConfig = StageContextConfig;

    /**
     * @param stage this worker's stage index
     * @param numStages pipeline depth D
     * @param space the search space the context manager sizes against
     * @param inboxCapacity bounded-inbox capacity (>= in-flight limit)
     * @param context context manager/predictor configuration
     */
    StageWorker(int stage, int numStages, const SearchSpace &space,
                std::size_t inboxCapacity,
                ContextConfig context = ContextConfig());

    StageWorker(const StageWorker &) = delete;
    StageWorker &operator=(const StageWorker &) = delete;

    /**
     * Wire the pipeline; stage 0's completion sink is @p complete.
     * @p wake wakes every stage of the pool: a backward that
     * committed at least one claim calls it once, after its last
     * commit, since the commits may have made a queued forward on
     * any stage readable. @p died receives (stage, exception text) once, on the worker
     * thread, if a task throws: the worker has closed its inbox and
     * exits without taking more work.
     */
    void connect(StageWorker *next, StageWorker *prev,
                 std::function<void(std::shared_ptr<const SubnetRun>)>
                     complete,
                 std::function<void()> wake,
                 std::function<void(int, const std::string &)> died);

    /** Start the worker thread; @p epoch anchors trace timestamps. */
    void start(obs::TimePoint epoch, bool recordTrace);

    /** Enqueue a task (blocking when the inbox is full). */
    void submit(ExecTask task);

    /** Wake the scheduling loop (a gate commit may unblock a fwd). */
    void notify();

    /** Ask the loop to exit once its queues drain, then notify. */
    void requestStop();

    /**
     * Ask the loop to exit *immediately*, abandoning queued work, and
     * close the inbox so no producer can block on it. Used when the
     * supervisor quiesces the pipeline after a fail-stop incident —
     * the abandoned tasks are rebuilt from the checkpoint replay.
     */
    void requestAbort();

    /** Join the worker thread. */
    void join();

    /** @name Transient fault injection
     * Latches armed by the coordinator at task boundaries; the worker
     * thread consumes them at the top of its scheduling loop (stall)
     * or per executed task (degrade). @{ */
    /** Sleep through @p ticks bounded waits before the next task. */
    void injectStall(int ticks) { _stallTicks = ticks; notify(); }
    /** Slow down the next @p tasks executed tasks. */
    void injectDegrade(int tasks) { _degradeTasks = tasks; }
    /** @} */

    int stage() const { return _stage; }

    /** Post-join accounting. */
    const Stats &stats() const { return _stats; }

    /** Post-join context-manager accounting. */
    const ContextManager &ctx() const { return _ctx; }

    /** Post-join trace records (empty unless recordTrace). */
    const std::vector<TraceRecord> &traceRecords() const
    {
        return _traceRecords;
    }

    /** Post-join wall-mode observations (histograms, gate-wait
     *  attribution by layer). */
    const obs::StageObservation &observation() const { return _obs; }

  private:
    using RunPtr = std::shared_ptr<const SubnetRun>;

    /** Thread body: runLoop(), reporting a throwing task to _died. */
    void run();
    void runLoop();
    void drainInbox();
    /** Consume a stall latch: sleep through @p ticks bounded waits. */
    void stallFor(int ticks);
    /** Index into _fwd of the lowest-ID readable forward, or -1; on
     *  -1 with queued forwards, @p blockedOn receives the layer key
     *  whose chain blocks the lowest-sequence candidate. */
    int findRunnableForward(std::uint64_t *blockedOn);
    void execForward(RunPtr task);
    void execBackward(RunPtr task);
    std::pair<int, int> blockRange(const SubnetRun &run) const;
    double secondsSinceEpoch() const;
    /** Prefetch @p run's stage context (predictor paths). */
    void prefetchRun(const SubnetRun &run);
    /** Algorithm 3: prefetch the forwards queued to run next. */
    void prefetchQueued();

    const int _stage;
    const int _numStages;

    BoundedTaskQueue<ExecTask> _inbox;
    StageWorker *_next = nullptr;
    StageWorker *_prev = nullptr;
    std::function<void(std::shared_ptr<const SubnetRun>)> _complete;
    std::function<void()> _wake;
    std::function<void(int, const std::string &)> _died;

    // Scheduling-loop signal: submit()/notify()/requestStop() bump
    // the counter so a wakeup arriving during a scan is never lost.
    RankedMutex _signalMu{LockRank::ExecWorkerSignal};
    std::condition_variable_any _cv;
    std::uint64_t _signals = 0;
    bool _stop = false;
    bool _abort = false;

    // Fault latches (coordinator writes, worker thread consumes).
    std::atomic<int> _stallTicks{0};
    std::atomic<int> _degradeTasks{0};

    // Thread-local scheduling state (worker thread only).
    std::deque<RunPtr> _bwd;
    std::vector<RunPtr> _fwd;  ///< sorted by ascending dispatch ticket

    // Context management (worker thread only; read after join()).
    ContextManager _ctx;
    const bool _predictor;  ///< Algorithm-3 prediction enabled
    /// Logical clock of _ctx: advances once per prefetch and once per
    /// executed task, standing in for the simulator's time.
    Tick _clock = 0;

    std::thread _thread;
    obs::TimePoint _epoch;
    bool _recordTrace = false;
    Stats _stats;
    std::vector<TraceRecord> _traceRecords;
    obs::StageObservation _obs;
    double _lastCommitSec = -1.0;  ///< for the commit-gap histogram
};

} // namespace naspipe

#endif // NASPIPE_EXEC_STAGE_WORKER_H
