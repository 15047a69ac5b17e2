#include "exec/commit_gate.h"

#include <algorithm>

#include "common/logging.h"

namespace naspipe {

CommitGate::Claim
CommitGate::registerActivation(std::uint64_t layerKey, SubnetId subnet)
{
    LayerChain &chain = _chains[layerKey];
    std::size_t rank = chain.firstRank + chain.pending.size();
    NASPIPE_ASSERT(rank == 0 || chain.last < subnet,
                   "gate registration out of sequence order for layer ",
                   layerKey, ": ", subnet, " after ", chain.last);
    // Drop the committed prefix: nothing resolves a committed pair,
    // so the layer holds only the activators still to commit.
    std::size_t committed =
        chain.committed.load(std::memory_order_acquire);
    chain.pending.erase(chain.pending.begin(),
                        chain.pending.begin() +
                            static_cast<std::ptrdiff_t>(
                                committed - chain.firstRank));
    chain.firstRank = committed;
    chain.pending.push_back(subnet);
    chain.last = subnet;
    return Claim{&chain, rank, layerKey, subnet};
}

const CommitGate::LayerChain *
CommitGate::find(std::uint64_t layerKey) const
{
    auto it = _chains.find(layerKey);
    return it == _chains.end() ? nullptr : &it->second;
}

CommitGate::Claim
CommitGate::resolve(std::uint64_t layerKey, SubnetId subnet) const
{
    const LayerChain *chain = find(layerKey);
    NASPIPE_ASSERT(chain, "layer ", layerKey,
                   " has no registered activators");
    auto it = std::lower_bound(chain->pending.begin(),
                               chain->pending.end(), subnet);
    NASPIPE_ASSERT(it != chain->pending.end() && *it == subnet, "SN",
                   subnet, " is not an uncommitted activator of layer ",
                   layerKey);
    std::size_t rank = chain->firstRank +
                       static_cast<std::size_t>(it - chain->pending.begin());
    return Claim{chain, rank, layerKey, subnet};
}

bool
CommitGate::readable(const Claim &claim) const
{
    const auto *chain = static_cast<const LayerChain *>(claim.chain);
    return chain->committed.load(std::memory_order_acquire) >=
           claim.rank;
}

void
CommitGate::commit(const Claim &claim, int stage)
{
    auto *chain = const_cast<LayerChain *>(
        static_cast<const LayerChain *>(claim.chain));
    if (_eventHook) {
        // Fired before the commit is published: the next rank of this
        // layer cannot read (let alone commit) until the fetch_add
        // below, so one layer's events reach the observer in rank
        // order.
        _eventHook(claim.layerKey, claim.subnet, claim.rank, stage);
    }
    // The release store publishes the parameter bytes the worker
    // wrote before committing; the order assertion catches scheduler
    // bugs (a commit may only extend the layer by exactly one).
    std::size_t was =
        chain->committed.fetch_add(1, std::memory_order_acq_rel);
    NASPIPE_ASSERT(was == claim.rank,
                   "commit out of causal order on layer ",
                   claim.layerKey, ": rank ", claim.rank,
                   " committed after ", was, " earlier commits");
    // acq_rel (not relaxed) so commits() observed from another thread
    // is ordered with the per-layer counters it summarizes.
    _commits.fetch_add(1, std::memory_order_acq_rel);
}

std::size_t
CommitGate::committedOf(std::uint64_t layerKey) const
{
    const LayerChain *chain = find(layerKey);
    return chain ? chain->committed.load(std::memory_order_acquire)
                 : 0;
}

std::size_t
CommitGate::retainedOf(std::uint64_t layerKey) const
{
    const LayerChain *chain = find(layerKey);
    return chain ? chain->pending.size() : 0;
}

} // namespace naspipe
