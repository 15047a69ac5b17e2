/**
 * @file
 * Sequence-ID commit gate: CSP's causal order as a concurrency
 * protocol.
 *
 * The simulator proves NASPipe's schedule; this gate carries the same
 * invariant into real multi-threaded execution. For every shared
 * layer the gate keeps the ascending list of subnets that activate it
 * (the layer's *causal chain*) and a commit counter. A worker may
 * READ a layer for subnet i only once every lower-sequence activator
 * has committed its WRITE, and commits must themselves arrive in
 * chain order — so each layer observes exactly the R,W,R,W history a
 * sequential run produces, and the trained weights are bitwise
 * identical to the simulator's no matter how the OS interleaves the
 * worker threads.
 *
 * Lock discipline: the layer table is guarded by a shared_mutex
 * (registration on the coordinator takes it exclusive; workers
 * resolve layers shared). Entries are never removed, and
 * unordered_map guarantees element-pointer stability, so workers
 * cache LayerChain pointers and then poll the per-layer atomic
 * counter lock-free. Commit uses release ordering and readiness
 * checks use acquire, which is what makes the parameter bytes
 * written before a commit visible to the next reader.
 */

#ifndef NASPIPE_EXEC_COMMIT_GATE_H
#define NASPIPE_EXEC_COMMIT_GATE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/lock_rank.h"
#include "supernet/subnet.h"

namespace naspipe {

/**
 * Per-layer causal chains plus commit counters.
 */
class CommitGate
{
  public:
    /** One resolved (layer, subnet) gate dependency. */
    struct Claim {
        const void *chain = nullptr;  ///< opaque LayerChain handle
        std::size_t rank = 0;         ///< position in the chain
        std::uint64_t layerKey = 0;
        SubnetId subnet = -1;  ///< resolved activator (event hook)
    };

    CommitGate() = default;
    CommitGate(const CommitGate &) = delete;
    CommitGate &operator=(const CommitGate &) = delete;

    /**
     * Append @p subnet to @p layerKey's causal chain. Must be called
     * in ascending subnet order per layer (the injection order), and
     * before any task of @p subnet is dispatched.
     */
    void registerActivation(std::uint64_t layerKey, SubnetId subnet);

    /**
     * Resolve the (layer, subnet) pair into a lock-free pollable
     * claim. The pair must have been registered.
     */
    Claim resolve(std::uint64_t layerKey, SubnetId subnet) const;

    /** Whether every activator ranked below the claim has committed. */
    bool readable(const Claim &claim) const;

    /** Convenience: resolve + readable in one call. */
    bool readable(std::uint64_t layerKey, SubnetId subnet) const;

    /**
     * Commit @p claim's WRITE. Aborts if commits would leave chain
     * order (a scheduler bug, never a data-dependent condition).
     * Wakes blocked waitReadable() calls and fires the commit hooks.
     * @p stage tags the event-observer callback with the committing
     * pipeline stage (-1 = unknown / not a pipelined caller).
     */
    void commit(const Claim &claim, int stage = -1);

    /** Resolve-and-commit convenience. */
    void commit(std::uint64_t layerKey, SubnetId subnet);

    /**
     * Block until readable(). Used by tests and by schedulers that
     * prefer blocking acquisition; the parallel runtime's workers
     * poll readable() instead so a blocked forward can never wedge a
     * worker that still has runnable tasks.
     */
    void waitReadable(const Claim &claim);

    /**
     * Hook fired after every commit (outside the layer-table lock).
     * The parallel runtime uses it to wake stage workers whose
     * forward candidates may have become schedulable.
     */
    void onCommit(std::function<void()> hook) { _hook = std::move(hook); }

    /**
     * Commit *event* observer: called on every commit with
     * (layerKey, committing subnet, chain rank, stage) — the
     * determinism audit layer's CspOracle attaches here to check
     * commit monotonicity live. Called from worker threads just
     * before the commit is published, so the events of one layer's
     * chain arrive in chain order; the observer must be thread-safe.
     * Install before workers start.
     */
    using CommitEventHook = std::function<void(
        std::uint64_t layerKey, SubnetId subnet, std::size_t rank,
        int stage)>;
    void onCommitEvent(CommitEventHook hook)
    {
        _eventHook = std::move(hook);
    }

    /** Total commits so far. */
    std::uint64_t commits() const
    {
        return _commits.load(std::memory_order_acquire);
    }

    /** Number of layers with at least one registered activator. */
    std::size_t layers() const;

    /** Committed WRITE count of @p layerKey (0 if unregistered). */
    std::size_t committedOf(std::uint64_t layerKey) const;

  private:
    struct LayerChain {
        std::vector<SubnetId> activators;  ///< ascending sequence IDs
        std::atomic<std::size_t> committed{0};
    };

    const LayerChain *chainOf(std::uint64_t layerKey) const;

    mutable RankedSharedMutex _gateTableMu{LockRank::ExecGateTable};
    std::unordered_map<std::uint64_t, LayerChain> _chains;
    std::function<void()> _hook;
    CommitEventHook _eventHook;
    std::atomic<std::uint64_t> _commits{0};

    // waitReadable() parking lot: commits broadcast here.
    mutable RankedMutex _gateWaitMu{LockRank::ExecGateWait};
    mutable std::condition_variable_any _waitCv;
};

} // namespace naspipe

#endif // NASPIPE_EXEC_COMMIT_GATE_H
