/**
 * @file
 * Residency-table property: the dense per-layer GpuMemoryManager
 * answers exactly like the ordered-map bookkeeping it replaced. A
 * seeded random walk of admit/touch/evict/lruVictim/reset drives the
 * manager and a std::map reference model side by side; every return
 * value and counter must match after each step. Last uses are drawn
 * from a few values so LRU ties (broken in (block, choice) order) are
 * frequent.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "memory/gpu_memory.h"
#include "supernet/search_space.h"

namespace naspipe {
namespace {

/** The ordered-map resident set, keyed by LayerId::key(). */
class MapModel
{
  public:
    struct Entry {
        std::uint64_t bytes;
        Tick availableAt;
        Tick lastUse;
    };

    bool
    tracked(const LayerId &l) const
    {
        return _layers.count(l.key()) > 0;
    }

    Tick
    admit(const LayerId &l, std::uint64_t bytes, Tick availableAt)
    {
        auto [it, inserted] = _layers.try_emplace(
            l.key(), Entry{bytes, availableAt, availableAt});
        if (!inserted)
            return it->second.availableAt;
        resident += bytes;
        peak = std::max(peak, resident);
        return availableAt;
    }

    Tick availableAt(const LayerId &l) const
    {
        return _layers.at(l.key()).availableAt;
    }

    void
    touch(const LayerId &l, Tick now)
    {
        auto it = _layers.find(l.key());
        if (it != _layers.end())
            it->second.lastUse = std::max(it->second.lastUse, now);
    }

    std::uint64_t
    evict(const LayerId &l)
    {
        auto it = _layers.find(l.key());
        if (it == _layers.end())
            return 0;
        std::uint64_t bytes = it->second.bytes;
        resident -= bytes;
        _layers.erase(it);
        return bytes;
    }

    bool
    lruVictim(LayerId &victim, Tick before) const
    {
        bool found = false;
        Tick best = 0;
        for (const auto &[key, e] : _layers) {
            if (e.lastUse >= before)
                continue;
            if (!found || e.lastUse < best) {
                best = e.lastUse;
                victim = {static_cast<std::uint32_t>(key >> 32),
                          static_cast<std::uint32_t>(key & 0xffffffffULL)};
                found = true;
            }
        }
        return found;
    }

    void
    reset()
    {
        _layers.clear();
        resident = 0;
        peak = 0;
        hits = 0;
        misses = 0;
    }

    std::size_t size() const { return _layers.size(); }

    std::uint64_t resident = 0;
    std::uint64_t peak = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    std::map<std::uint64_t, Entry> _layers;
};

class ResidencyProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ResidencyProperty, DenseTableMatchesTheMapModel)
{
    const SearchSpace space("r", SpaceFamily::Nlp, 6, 5, 11, 0.3);
    GpuMemoryManager mem(space);
    MapModel model;
    Xoshiro256StarStar rng(GetParam());
    auto randomLayer = [&] {
        return LayerId{
            static_cast<std::uint32_t>(rng.nextBelow(6)),
            static_cast<std::uint32_t>(rng.nextBelow(5))};
    };
    auto randomTick = [&] { return Tick{rng.nextBelow(6)}; };

    for (int step = 0; step < 4000; step++) {
        SCOPED_TRACE(step);
        const LayerId l = randomLayer();
        switch (rng.nextBelow(20)) {
          case 0:
            mem.reset();
            model.reset();
            break;
          case 1: case 2: case 3: case 4: case 5: case 6: {
            const Tick at = randomTick();
            ASSERT_EQ(mem.admit(l, at),
                      model.admit(l, space.spec(l).paramBytes, at));
            break;
          }
          case 7: case 8: case 9: {
            const Tick now = randomTick();
            mem.touch(l, now);
            model.touch(l, now);
            break;
          }
          case 10:
            // ContextManager's classification: tracked is a hit.
            if (mem.tracked(l)) {
                mem.hitStats().hit();
                model.hits++;
            } else {
                mem.hitStats().miss();
                model.misses++;
            }
            break;
          case 11: case 12: case 13: case 14:
            ASSERT_EQ(mem.evict(l), model.evict(l));
            break;
          default: {
            const Tick before = randomTick();
            LayerId got{99, 99}, want{99, 99};
            ASSERT_EQ(mem.lruVictim(got, before),
                      model.lruVictim(want, before));
            ASSERT_EQ(got, want);
            break;
          }
        }
        ASSERT_EQ(mem.tracked(l), model.tracked(l));
        if (model.tracked(l)) {
            ASSERT_EQ(mem.availableAt(l), model.availableAt(l));
        }
        ASSERT_EQ(mem.bytes(l), space.spec(l).paramBytes);
        ASSERT_EQ(mem.residentBytes(), model.resident);
        ASSERT_EQ(mem.peakBytes(), model.peak);
        ASSERT_EQ(mem.residentLayers(), model.size());
        ASSERT_EQ(mem.hitStats().hits(), model.hits);
        ASSERT_EQ(mem.hitStats().misses(), model.misses);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResidencyProperty,
                         ::testing::Values(1u, 2u, 3u, 29u, 1009u));

} // namespace
} // namespace naspipe
