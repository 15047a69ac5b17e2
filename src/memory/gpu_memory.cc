#include "memory/gpu_memory.h"

#include <algorithm>

#include "supernet/search_space.h"

namespace naspipe {

GpuMemoryManager::GpuMemoryManager(const SearchSpace &space)
    : _choicesPerBlock(
          static_cast<std::uint32_t>(space.choicesPerBlock())),
      _slots(static_cast<std::size_t>(space.totalLayers()))
{
    for (int b = 0; b < space.numBlocks(); b++) {
        for (int c = 0; c < space.choicesPerBlock(); c++) {
            _slots[static_cast<std::size_t>(b) * _choicesPerBlock +
                   static_cast<std::size_t>(c)]
                .bytes = space.spec(b, c).paramBytes;
        }
    }
}

Tick
GpuMemoryManager::admit(const LayerId &layer, Tick availableAt)
{
    Slot &s = slot(layer);
    if (s.position != kUntracked)
        return s.availableAt;
    s.availableAt = availableAt;
    s.lastUse = availableAt;
    s.position = static_cast<std::uint32_t>(_tracked.size());
    _tracked.push_back(index(layer));
    _residentBytes += s.bytes;
    _peakBytes = std::max(_peakBytes, _residentBytes);
    return availableAt;
}

std::uint64_t
GpuMemoryManager::evict(const LayerId &layer)
{
    Slot &s = slot(layer);
    if (s.position == kUntracked)
        return 0;
    // Swap-remove from the tracked list, re-pointing the slot that
    // moves into the hole.
    const std::uint32_t moved = _tracked.back();
    _tracked[s.position] = moved;
    _slots[moved].position = s.position;
    _tracked.pop_back();
    s.position = kUntracked;
    _residentBytes -= s.bytes;
    return s.bytes;
}

bool
GpuMemoryManager::lruVictim(LayerId &victim, Tick before) const
{
    // Only layers last used strictly before @p before are evictable;
    // a layer touched at the current instant (or whose copy is still
    // in flight, lastUse in the future) is in use.
    bool found = false;
    Tick best = 0;
    std::uint32_t bestIndex = 0;
    for (std::uint32_t i : _tracked) {
        const Tick lastUse = _slots[i].lastUse;
        if (lastUse >= before)
            continue;
        if (!found || lastUse < best ||
            (lastUse == best && i < bestIndex)) {
            best = lastUse;
            bestIndex = i;
            found = true;
        }
    }
    if (found) {
        victim.block = bestIndex / _choicesPerBlock;
        victim.choice = bestIndex % _choicesPerBlock;
    }
    return found;
}

void
GpuMemoryManager::reset()
{
    for (std::uint32_t i : _tracked)
        _slots[i].position = kUntracked;
    _tracked.clear();
    _residentBytes = 0;
    _peakBytes = 0;
    _hits.reset();
}

} // namespace naspipe
