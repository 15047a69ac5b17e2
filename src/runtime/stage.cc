#include "runtime/stage.h"

#include <algorithm>

#include "common/logging.h"

namespace naspipe {

Stage::Stage(const SearchSpace &space, Gpu &gpu, int index,
             int numStages, MemoryMode memory, Hooks hooks,
             std::uint64_t cacheBudgetBytes)
    : _gpu(gpu), _index(index), _numStages(numStages),
      _hooks(std::move(hooks)), _deps(&space),
      _ctx(space, memory, cacheBudgetBytes, &gpu)
{
    NASPIPE_ASSERT(index >= 0 && index < numStages,
                   "stage index out of range");
    NASPIPE_ASSERT(_hooks.blockRange, "stage requires blockRange hook");
    NASPIPE_ASSERT(_hooks.upstreamWritesDone,
                   "stage requires upstreamWritesDone hook");
}

void
Stage::pushFwd(SubnetId id)
{
    NASPIPE_ASSERT(std::find(_fwdQueue.begin(), _fwdQueue.end(), id) ==
                       _fwdQueue.end(),
                   "SN", id, " already in forward queue");
    _fwdQueue.push_back(id);
}

void
Stage::pushBwd(SubnetId id, std::vector<PendingBackward> nextBwds)
{
    NASPIPE_ASSERT(std::find(_bwdQueue.begin(), _bwdQueue.end(), id) ==
                       _bwdQueue.end(),
                   "SN", id, " already in backward queue");
    _bwdQueue.push_back(id);
    _bwdMeta.emplace(id, std::move(nextBwds));
}

void
Stage::popFwd(SubnetId id)
{
    auto it = std::find(_fwdQueue.begin(), _fwdQueue.end(), id);
    NASPIPE_ASSERT(it != _fwdQueue.end(), "SN", id,
                   " not in forward queue");
    _fwdQueue.erase(it);
}

std::vector<PendingBackward>
Stage::popBwd(SubnetId id)
{
    auto it = std::find(_bwdQueue.begin(), _bwdQueue.end(), id);
    NASPIPE_ASSERT(it != _bwdQueue.end(), "SN", id,
                   " not in backward queue");
    _bwdQueue.erase(it);
    auto meta = _bwdMeta.find(id);
    NASPIPE_ASSERT(meta != _bwdMeta.end(), "missing backward metadata");
    std::vector<PendingBackward> out = std::move(meta->second);
    _bwdMeta.erase(meta);
    return out;
}

} // namespace naspipe
