/**
 * @file
 * Central lock registry: every mutex in the concurrent subsystems
 * (src/exec, src/serve, src/fault, src/train, src/verify, src/obs)
 * declares a named rank from ONE documented partial order, and the
 * wrappers below enforce that order — statically via the
 * concurrency-discipline analyzer (tools/analysis/lock_pass.*, run
 * by the `lint` target) and dynamically via the debug lock-order
 * witness compiled into every Debug/TSan build.
 *
 * The discipline: a thread may only acquire a mutex whose rank is
 * STRICTLY GREATER than every rank it already holds. Rank values
 * ascend from the outermost control plane (client-facing service
 * state) to the innermost leaf locks reachable from commit hooks
 * (the CspOracle). Any acquisition order consistent with the ranks
 * is cycle-free, so a rank violation is a potential deadlock even
 * when the interleaving that would wedge has never been observed.
 *
 * Declaring a mutex:
 *
 *     mutable RankedMutex _queueMu{LockRank::ExecQueue};
 *
 * The analyzer parses exactly this form (wrapper type, member name,
 * LockRank:: rank) to build the whole-repo lock-order graph; member
 * names must be unique per rank across the repo so an acquisition
 * site (`std::lock_guard<RankedMutex> lock(_queueMu)`) resolves to
 * one rank without type information.
 *
 * Condition variables pair with the wrappers via
 * std::condition_variable_any (plain std::condition_variable only
 * accepts std::mutex and is flagged by the `raw-mutex` lint rule).
 * A cv wait unlocks through RankedMutex::unlock(), so the witness's
 * held-lock stack stays exact across the sleep and the reacquire is
 * re-checked on wake.
 *
 * Witness cost model: in Release (NDEBUG, no NASPIPE_LOCK_WITNESS)
 * every wrapper method compiles to the underlying std::mutex /
 * std::shared_mutex call plus one dead int member — BENCH_9.json
 * records that witness-off throughput is unchanged vs BENCH_8.json.
 */

#ifndef NASPIPE_COMMON_LOCK_RANK_H
#define NASPIPE_COMMON_LOCK_RANK_H

#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#if !defined(NDEBUG) || defined(NASPIPE_LOCK_WITNESS)
#define NASPIPE_LOCK_WITNESS_ENABLED 1
#else
#define NASPIPE_LOCK_WITNESS_ENABLED 0
#endif

namespace naspipe {

/**
 * The documented partial order, outermost (lowest value) first.
 * Values are spaced so a future subsystem can slot between two
 * existing ranks without renumbering; the concrete integers are
 * meaningful only through their relative order.
 *
 * Rationale for the order: control-plane locks (service client
 * state, incident latches) sit above the data plane they
 * coordinate; within the data plane, the pipeline hand-off path
 * (queue → worker signal; the commit gate itself is lock-free)
 * precedes the training-state lock it may reach while executing a
 * task (numeric contexts), and the determinism-audit oracle is the
 * innermost because commit hooks invoke it from arbitrary lock-free
 * contexts and it must never need to acquire outward.
 */
enum class LockRank : int {
    /// serve::SearchService client-facing state (submit/cancel/
    /// status snapshots) — the outermost lock a caller thread takes.
    ServeClient = 10,
    /// serve::JobFinisher work/result FIFO (coordinator and finisher
    /// threads; a leaf: nothing is acquired while it is held).
    ServeFinisher = 15,
    /// SharedStagePool worker-incident latch (solo and serve).
    ServePoolIncident = 20,
    /// BoundedTaskQueue buffer (stage inboxes, completion queues).
    ExecQueue = 50,
    /// StageWorker scheduling-loop signal (wakeup counter, stop).
    ExecWorkerSignal = 60,
    /// NumericExecutor in-flight context map (shared: begin/finish
    /// vs stage-worker lookups).
    TrainContext = 90,
    /// verify::CspOracle violation/chain state — innermost: commit
    /// hooks call into it and it never acquires outward.
    VerifyOracle = 110,
};

/** Stable display name of @p rank ("serve.client", "exec.queue"…). */
const char *lockRankName(LockRank rank);

/** Whether the runtime lock-order witness is compiled in. */
constexpr bool
lockWitnessEnabled()
{
    return NASPIPE_LOCK_WITNESS_ENABLED == 1;
}

namespace lockdebug {

/**
 * Witness violation sink. The default handler prints the offending
 * ranks plus this thread's held-lock stack to stderr and aborts —
 * a rank violation is a potential deadlock, never a data-dependent
 * condition, so dying loudly at the first occurrence is the point.
 * Tests install a capturing handler; passing nullptr restores the
 * default. Returns the previous handler.
 */
using ViolationHandler = void (*)(const std::string &message);
ViolationHandler setViolationHandler(ViolationHandler handler);

#if NASPIPE_LOCK_WITNESS_ENABLED
/** Order-check @p rank against this thread's held stack, then push
 *  it. Called by the wrappers on every (try_)lock/lock_shared. */
void noteAcquire(const void *mutex, LockRank rank);
/** Pop @p mutex from this thread's held stack. */
void noteRelease(const void *mutex);
/** This thread's held ranks, acquisition order (test hook). */
std::vector<LockRank> heldRanks();
#else
inline void
noteAcquire(const void *, LockRank)
{
}
inline void
noteRelease(const void *)
{
}
inline std::vector<LockRank>
heldRanks()
{
    return {};
}
#endif

} // namespace lockdebug

/**
 * std::mutex wrapper carrying a declared LockRank. Satisfies
 * Lockable, so std::lock_guard / std::unique_lock /
 * std::condition_variable_any work unchanged.
 */
class RankedMutex
{
  public:
    explicit RankedMutex(LockRank rank) : _rank(rank) {}

    RankedMutex(const RankedMutex &) = delete;
    RankedMutex &operator=(const RankedMutex &) = delete;

    void
    lock()
    {
        // Check before blocking: the witness reports the would-be
        // deadlock instead of entering it.
        lockdebug::noteAcquire(this, _rank);
        _mu.lock();
    }

    bool
    try_lock()
    {
        lockdebug::noteAcquire(this, _rank);
        if (_mu.try_lock())
            return true;
        lockdebug::noteRelease(this);
        return false;
    }

    void
    unlock()
    {
        _mu.unlock();
        lockdebug::noteRelease(this);
    }

    LockRank rank() const { return _rank; }
    const char *name() const { return lockRankName(_rank); }

  private:
    std::mutex _mu;
    const LockRank _rank;
};

/**
 * std::shared_mutex wrapper carrying a declared LockRank. Shared
 * (reader) acquisitions obey the same rank order as exclusive ones:
 * a reader blocked behind a writer participates in wait cycles all
 * the same.
 */
class RankedSharedMutex
{
  public:
    explicit RankedSharedMutex(LockRank rank) : _rank(rank) {}

    RankedSharedMutex(const RankedSharedMutex &) = delete;
    RankedSharedMutex &operator=(const RankedSharedMutex &) = delete;

    void
    lock()
    {
        lockdebug::noteAcquire(this, _rank);
        _mu.lock();
    }

    bool
    try_lock()
    {
        lockdebug::noteAcquire(this, _rank);
        if (_mu.try_lock())
            return true;
        lockdebug::noteRelease(this);
        return false;
    }

    void
    unlock()
    {
        _mu.unlock();
        lockdebug::noteRelease(this);
    }

    void
    lock_shared()
    {
        lockdebug::noteAcquire(this, _rank);
        _mu.lock_shared();
    }

    bool
    try_lock_shared()
    {
        lockdebug::noteAcquire(this, _rank);
        if (_mu.try_lock_shared())
            return true;
        lockdebug::noteRelease(this);
        return false;
    }

    void
    unlock_shared()
    {
        _mu.unlock_shared();
        lockdebug::noteRelease(this);
    }

    LockRank rank() const { return _rank; }
    const char *name() const { return lockRankName(_rank); }

  private:
    std::shared_mutex _mu;
    const LockRank _rank;
};

} // namespace naspipe

#endif // NASPIPE_COMMON_LOCK_RANK_H
