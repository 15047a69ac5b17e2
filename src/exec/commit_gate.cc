#include "exec/commit_gate.h"

#include <algorithm>

#include "common/logging.h"

namespace naspipe {

void
CommitGate::registerActivation(std::uint64_t layerKey, SubnetId subnet)
{
    std::unique_lock<RankedSharedMutex> lock(_gateTableMu);
    LayerChain &chain = _chains[layerKey];
    NASPIPE_ASSERT(chain.activators.empty() ||
                       chain.activators.back() < subnet,
                   "gate registration out of sequence order for layer ",
                   layerKey, ": ", subnet, " after ",
                   chain.activators.empty() ? -1
                                            : chain.activators.back());
    chain.activators.push_back(subnet);
}

const CommitGate::LayerChain *
CommitGate::chainOf(std::uint64_t layerKey) const
{
    std::shared_lock<RankedSharedMutex> lock(_gateTableMu);
    auto it = _chains.find(layerKey);
    return it == _chains.end() ? nullptr : &it->second;
}

CommitGate::Claim
CommitGate::resolve(std::uint64_t layerKey, SubnetId subnet) const
{
    // Hold the table lock across the activator search, not just the
    // chain lookup: the coordinator may be growing this chain's
    // vector under the exclusive lock at this very moment. Appends
    // only ever add *higher* sequence IDs, so the rank computed here
    // stays valid after the lock drops.
    std::shared_lock<RankedSharedMutex> lock(_gateTableMu);
    auto found = _chains.find(layerKey);
    NASPIPE_ASSERT(found != _chains.end(), "layer ", layerKey,
                   " has no registered activators");
    const LayerChain *chain = &found->second;
    auto it = std::lower_bound(chain->activators.begin(),
                               chain->activators.end(), subnet);
    NASPIPE_ASSERT(it != chain->activators.end() && *it == subnet,
                   "SN", subnet, " is not an activator of layer ",
                   layerKey);
    Claim claim;
    claim.chain = chain;
    claim.rank = static_cast<std::size_t>(
        it - chain->activators.begin());
    claim.layerKey = layerKey;
    claim.subnet = subnet;
    return claim;
}

bool
CommitGate::readable(const Claim &claim) const
{
    const auto *chain = static_cast<const LayerChain *>(claim.chain);
    return chain->committed.load(std::memory_order_acquire) >=
           claim.rank;
}

bool
CommitGate::readable(std::uint64_t layerKey, SubnetId subnet) const
{
    return readable(resolve(layerKey, subnet));
}

void
CommitGate::commit(const Claim &claim, int stage)
{
    auto *chain = const_cast<LayerChain *>(
        static_cast<const LayerChain *>(claim.chain));
    if (_eventHook) {
        // Fired before the commit is published: the next rank of this
        // chain cannot read (let alone commit) until the fetch_add
        // below, so one chain's events reach the observer in chain
        // order. The subnet ID comes from the claim, captured under
        // the table lock at resolve() time — reading activators[]
        // here would race the coordinator growing the vector.
        _eventHook(claim.layerKey, claim.subnet, claim.rank, stage);
    }
    // The release store publishes the parameter bytes the worker
    // wrote before committing; the order assertion catches scheduler
    // bugs (a commit may only extend the chain by exactly one).
    std::size_t was =
        chain->committed.fetch_add(1, std::memory_order_acq_rel);
    NASPIPE_ASSERT(was == claim.rank,
                   "commit out of causal order on layer ",
                   claim.layerKey, ": rank ", claim.rank,
                   " committed after ", was, " earlier commits");
    // acq_rel (not relaxed) so commits() observed from another thread
    // is ordered with the per-chain counters it summarizes.
    _commits.fetch_add(1, std::memory_order_acq_rel);
    {
        // An empty critical section orders the notify after any
        // concurrent waiter's predicate check, so no wakeup is lost.
        std::lock_guard<RankedMutex> lock(_gateWaitMu);
    }
    _waitCv.notify_all();
    if (_hook)
        _hook();
}

void
CommitGate::commit(std::uint64_t layerKey, SubnetId subnet)
{
    commit(resolve(layerKey, subnet));
}

void
CommitGate::waitReadable(const Claim &claim)
{
    if (readable(claim))
        return;
    std::unique_lock<RankedMutex> lock(_gateWaitMu);
    _waitCv.wait(lock, [&] { return readable(claim); });
}

std::size_t
CommitGate::layers() const
{
    std::shared_lock<RankedSharedMutex> lock(_gateTableMu);
    return _chains.size();
}

std::size_t
CommitGate::committedOf(std::uint64_t layerKey) const
{
    const LayerChain *chain = chainOf(layerKey);
    return chain ? chain->committed.load(std::memory_order_acquire)
                 : 0;
}

} // namespace naspipe
