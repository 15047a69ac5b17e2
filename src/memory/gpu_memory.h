/**
 * @file
 * Per-GPU parameter cache accounting.
 *
 * Tracks which candidate layers' parameters are resident in one GPU's
 * memory, when an in-flight copy becomes usable, and the hit/miss
 * statistics behind Table 2's "Cache Hit" column ("collected by
 * checking whether an ML layer's parameter was in GPU memory before
 * its execution").
 *
 * The state lives in one dense slot table shaped from the search
 * space, indexed like ParameterStore and SearchSpace::spec
 * (block * choicesPerBlock + choice). Each slot carries its layer's
 * parameter bytes, filled once at construction (0 marks the skip
 * candidate), so admitting or evicting a layer allocates nothing.
 * Index order is (block, choice) order, the order LayerId::key()
 * sorts in, and lruVictim breaks ties on it. A small list of the
 * tracked slots, with a back-pointer in each slot, keeps the victim
 * search and reset at O(resident layers) rather than O(table). A
 * default-constructed manager has no table: it suits a stage whose
 * contexts are AllResident, which never asks it about a layer; a
 * layer outside the table panics.
 */

#ifndef NASPIPE_MEMORY_GPU_MEMORY_H
#define NASPIPE_MEMORY_GPU_MEMORY_H

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"
#include "sim/event.h"
#include "supernet/layer.h"

namespace naspipe {

class SearchSpace;

/**
 * Resident-set bookkeeping for one GPU.
 */
class GpuMemoryManager
{
  public:
    /** An empty manager with no table (AllResident stages). */
    GpuMemoryManager() = default;

    /** A manager with one slot per candidate layer of @p space. */
    explicit GpuMemoryManager(const SearchSpace &space);

    /** Parameter bytes of @p layer (0 for the skip candidate). */
    std::uint64_t
    bytes(const LayerId &layer) const
    {
        return slot(layer).bytes;
    }

    /** Whether @p layer is tracked (copy may still be in flight). */
    bool
    tracked(const LayerId &layer) const
    {
        return slot(layer).position != kUntracked;
    }

    /**
     * Record the start of a copy for @p layer completing at
     * @p availableAt. No-op if already tracked (the earlier copy
     * wins); returns the effective availability time.
     */
    Tick admit(const LayerId &layer, Tick availableAt);

    /** Availability time of a tracked layer. */
    Tick
    availableAt(const LayerId &layer) const
    {
        const Slot &s = slot(layer);
        NASPIPE_ASSERT(s.position != kUntracked, "layer not tracked");
        return s.availableAt;
    }

    /** Record a use of @p layer at @p now (LRU bookkeeping). */
    void
    touch(const LayerId &layer, Tick now)
    {
        Slot &s = slot(layer);
        if (s.position != kUntracked && s.lastUse < now)
            s.lastUse = now;
    }

    /** Remove @p layer; returns its bytes (0 if not tracked). */
    std::uint64_t evict(const LayerId &layer);

    /** Bytes currently tracked (resident + in flight). */
    std::uint64_t residentBytes() const { return _residentBytes; }

    /** High-water mark of tracked bytes. */
    std::uint64_t peakBytes() const { return _peakBytes; }

    /** Number of tracked layers. */
    std::size_t residentLayers() const { return _tracked.size(); }

    /** Hit/miss accounting (callers classify at dispatch time). */
    RatioStat &hitStats() { return _hits; }
    const RatioStat &hitStats() const { return _hits; }

    /**
     * The least-recently-used layer whose last use is before
     * @p before; returns false if none. Ties go to the lowest
     * (block, choice). Used for capacity pressure.
     */
    bool lruVictim(LayerId &victim, Tick before) const;

    void reset();

  private:
    static constexpr std::uint32_t kUntracked = ~std::uint32_t{0};

    /** Residency state of one candidate layer on this GPU. */
    struct Slot {
        std::uint64_t bytes = 0;  ///< parameter footprint
        Tick availableAt = 0;     ///< copy completion time
        Tick lastUse = 0;         ///< for LRU eviction decisions
        /// Index into _tracked, or kUntracked.
        std::uint32_t position = kUntracked;
    };

    std::uint32_t
    index(const LayerId &layer) const
    {
        const std::uint32_t i =
            layer.block * _choicesPerBlock + layer.choice;
        NASPIPE_ASSERT(layer.choice < _choicesPerBlock &&
                           i < _slots.size(),
                       "layer outside the residency table");
        return i;
    }
    Slot &slot(const LayerId &layer) { return _slots[index(layer)]; }
    const Slot &
    slot(const LayerId &layer) const
    {
        return _slots[index(layer)];
    }

    std::uint32_t _choicesPerBlock = 0;
    std::vector<Slot> _slots;             ///< [block * n + choice]
    std::vector<std::uint32_t> _tracked;  ///< slot indices, any order
    std::uint64_t _residentBytes = 0;
    std::uint64_t _peakBytes = 0;
    RatioStat _hits;
};

} // namespace naspipe

#endif // NASPIPE_MEMORY_GPU_MEMORY_H
