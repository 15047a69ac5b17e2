/**
 * @file
 * Sequence-ID commit gate: CSP's causal order as a concurrency
 * protocol.
 *
 * The simulator proves NASPipe's schedule; this gate carries the same
 * invariant into real multi-threaded execution. Every shared layer
 * has a commit counter, and every (layer, activating subnet) pair a
 * *rank*: the number of lower-sequence activators registered before
 * it. A worker may READ a layer for subnet i only once every
 * lower-sequence activator has committed its WRITE (committed >=
 * rank), and commits must themselves arrive in rank order — so each
 * layer observes exactly the R,W,R,W history a sequential run
 * produces, and the trained weights are bitwise identical to the
 * simulator's no matter how the OS interleaves the worker threads.
 *
 * Ownership: the layer table belongs to one thread, the coordinator
 * (or a single-threaded caller such as a sequential replay or a
 * test). registerActivation() appends the subnet last in its layer's
 * order, so it knows the rank at once and returns the claim; the
 * caller hands claims to the workers with the task. Workers only
 * ever touch a claim's per-layer atomic counter, through readable()
 * and commit(), and never the table, so the gate has no lock.
 * unordered_map keeps element addresses stable across inserts, which
 * is what lets a claim point at its layer while the coordinator keeps
 * registering. Commit uses release ordering and readiness checks use
 * acquire, which is what makes the parameter bytes written before a
 * commit visible to the next reader.
 *
 * Bounded state: a layer keeps only the activators it has not yet
 * seen committed (registration drops the committed prefix), so what
 * it retains is bounded by the subnets in flight, not by run length.
 */

#ifndef NASPIPE_EXEC_COMMIT_GATE_H
#define NASPIPE_EXEC_COMMIT_GATE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "supernet/subnet.h"

namespace naspipe {

/**
 * Per-layer commit counters plus the claims that poll them.
 */
class CommitGate
{
  public:
    /** One (layer, subnet) gate dependency, pollable lock-free. */
    struct Claim {
        const void *chain = nullptr;  ///< opaque LayerChain handle
        std::size_t rank = 0;  ///< earlier activators of the layer
        std::uint64_t layerKey = 0;
        SubnetId subnet = -1;  ///< the activator (event hook)
    };

    CommitGate() = default;
    CommitGate(const CommitGate &) = delete;
    CommitGate &operator=(const CommitGate &) = delete;

    /**
     * Append @p subnet to @p layerKey's activators and return its
     * claim. Must be called in ascending subnet order per layer (the
     * injection order), before any task of @p subnet is dispatched,
     * and from the one thread that owns the table.
     */
    Claim registerActivation(std::uint64_t layerKey, SubnetId subnet);

    /**
     * Look up the claim of a registered (layer, subnet) pair that has
     * not committed yet. It equals the claim registerActivation()
     * returned for the pair. Must not run concurrently with
     * registerActivation().
     */
    Claim resolve(std::uint64_t layerKey, SubnetId subnet) const;

    /** Whether every activator ranked below the claim has committed. */
    bool readable(const Claim &claim) const;

    /**
     * Commit @p claim's WRITE. Aborts if commits would leave rank
     * order (a scheduler bug, never a data-dependent condition), then
     * fires the commit hooks. @p stage tags the event-observer
     * callback with the committing pipeline stage (-1 = unknown / not
     * a pipelined caller).
     */
    void commit(const Claim &claim, int stage = -1);

    /**
     * Hook fired after every commit. The parallel runtime uses it to
     * wake stage workers whose forward candidates may have become
     * schedulable.
     */
    void onCommit(std::function<void()> hook) { _hook = std::move(hook); }

    /**
     * Commit *event* observer: called on every commit with
     * (layerKey, committing subnet, rank, stage) — the determinism
     * audit layer's CspOracle attaches here to check commit
     * monotonicity live. Called from worker threads just before the
     * commit is published, so the events of one layer arrive in rank
     * order; the observer must be thread-safe. Install before
     * workers start.
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

    /** @name Table queries
     * Same contract as resolve(): not concurrent with
     * registerActivation(). @{ */
    /** Committed WRITE count of @p layerKey (0 if unregistered). */
    std::size_t committedOf(std::uint64_t layerKey) const;
    /** Activators @p layerKey still holds: those not seen committed
     *  at its last registration, plus that registration's own. */
    std::size_t retainedOf(std::uint64_t layerKey) const;
    /** @} */

  private:
    struct LayerChain {
        std::atomic<std::size_t> committed{0};
        /// Activators not seen committed yet, ascending; front() has
        /// rank firstRank. Owner thread only.
        std::vector<SubnetId> pending;
        std::size_t firstRank = 0;
        SubnetId last = -1;  ///< last registered activator
    };

    const LayerChain *find(std::uint64_t layerKey) const;

    std::unordered_map<std::uint64_t, LayerChain> _chains;
    std::function<void()> _hook;
    CommitEventHook _eventHook;
    std::atomic<std::uint64_t> _commits{0};
};

} // namespace naspipe

#endif // NASPIPE_EXEC_COMMIT_GATE_H
