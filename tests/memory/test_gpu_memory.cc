/**
 * @file
 * GPU resident-set manager tests, over a small search space whose
 * layers' parameter bytes shape the manager's table.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "memory/gpu_memory.h"
#include "supernet/search_space.h"

namespace naspipe {
namespace {

const SearchSpace &
space()
{
    static const SearchSpace s("m", SpaceFamily::Nlp, 10, 10, 3);
    return s;
}

std::uint64_t
bytesOf(const LayerId &layer)
{
    return space().spec(layer).paramBytes;
}

TEST(GpuMemoryManager, AdmitAndQuery)
{
    GpuMemoryManager mem(space());
    LayerId layer{1, 2};
    EXPECT_FALSE(mem.tracked(layer));
    EXPECT_EQ(mem.bytes(layer), bytesOf(layer));
    mem.admit(layer, 50);
    EXPECT_TRUE(mem.tracked(layer));
    EXPECT_GT(mem.availableAt(layer), 49u);  // copy in flight at 49
    EXPECT_LE(mem.availableAt(layer), 50u);  // usable at 50
    EXPECT_EQ(mem.residentBytes(), bytesOf(layer));
}

TEST(GpuMemoryManager, DoubleAdmitKeepsFirstCopy)
{
    GpuMemoryManager mem(space());
    LayerId layer{0, 0};
    Tick first = mem.admit(layer, 10);
    Tick second = mem.admit(layer, 99);
    EXPECT_EQ(first, 10u);
    EXPECT_EQ(second, 10u);  // earlier copy wins
    EXPECT_EQ(mem.residentBytes(), bytesOf(layer));  // not double counted
}

TEST(GpuMemoryManager, EvictReleasesBytes)
{
    GpuMemoryManager mem(space());
    LayerId a{0, 0}, b{0, 1};
    mem.admit(a, 0);
    mem.admit(b, 0);
    EXPECT_EQ(mem.evict(a), bytesOf(a));
    EXPECT_EQ(mem.residentBytes(), bytesOf(b));
    EXPECT_EQ(mem.evict(a), 0u);  // idempotent
    EXPECT_EQ(mem.residentLayers(), 1u);
}

TEST(GpuMemoryManager, PeakBytesHighWaterMark)
{
    GpuMemoryManager mem(space());
    LayerId a{0, 0}, b{0, 1}, c{0, 2};
    mem.admit(a, 0);
    mem.admit(b, 0);
    mem.evict(a);
    mem.admit(c, 0);
    EXPECT_EQ(mem.peakBytes(), std::max(bytesOf(a) + bytesOf(b),
                                        bytesOf(b) + bytesOf(c)));
}

TEST(GpuMemoryManager, AvailabilityQueryPanicsOnUnknown)
{
    GpuMemoryManager mem(space());
    EXPECT_THROW(mem.availableAt(LayerId{9, 9}), std::logic_error);
}

TEST(GpuMemoryManager, TouchUpdatesLru)
{
    GpuMemoryManager mem(space());
    LayerId a{0, 0}, b{0, 1};
    mem.admit(a, 0);
    mem.admit(b, 0);
    mem.touch(a, 100);
    mem.touch(b, 50);
    LayerId victim;
    ASSERT_TRUE(mem.lruVictim(victim, 200));
    EXPECT_EQ(victim, b);  // least recently used
}

TEST(GpuMemoryManager, LruVictimRespectsCutoff)
{
    GpuMemoryManager mem(space());
    LayerId a{0, 0};
    mem.admit(a, 0);
    mem.touch(a, 100);
    LayerId victim;
    EXPECT_FALSE(mem.lruVictim(victim, 50));
    // A layer used at exactly the cutoff instant is still in use.
    EXPECT_FALSE(mem.lruVictim(victim, 100));
    EXPECT_TRUE(mem.lruVictim(victim, 101));
}

TEST(GpuMemoryManager, LruVictimTiesGoToTheLowestLayer)
{
    // Equal last uses resolve in (block, choice) order whatever the
    // order of admission or eviction.
    GpuMemoryManager mem(space());
    LayerId a{2, 7}, b{3, 1}, c{2, 8}, d{1, 9};
    mem.admit(a, 5);
    mem.admit(b, 5);
    mem.admit(c, 5);
    mem.admit(d, 5);
    LayerId victim;
    ASSERT_TRUE(mem.lruVictim(victim, 6));
    EXPECT_EQ(victim, d);
    mem.evict(d);
    ASSERT_TRUE(mem.lruVictim(victim, 6));
    EXPECT_EQ(victim, a);
    mem.evict(a);
    ASSERT_TRUE(mem.lruVictim(victim, 6));
    EXPECT_EQ(victim, c);
}

TEST(GpuMemoryManager, HitStatsIntegration)
{
    GpuMemoryManager mem(space());
    mem.hitStats().hit(9);
    mem.hitStats().miss();
    EXPECT_DOUBLE_EQ(mem.hitStats().rate(), 0.9);
}

TEST(GpuMemoryManager, ResetClearsEverything)
{
    GpuMemoryManager mem(space());
    mem.admit(LayerId{0, 0}, 0);
    mem.hitStats().hit();
    mem.reset();
    EXPECT_EQ(mem.residentBytes(), 0u);
    EXPECT_EQ(mem.peakBytes(), 0u);
    EXPECT_EQ(mem.hitStats().total(), 0u);
    EXPECT_EQ(mem.residentLayers(), 0u);
    EXPECT_FALSE(mem.tracked(LayerId{0, 0}));
}

TEST(GpuMemoryManager, LayersOutsideTheTablePanic)
{
    GpuMemoryManager mem(space());
    EXPECT_THROW(mem.tracked(LayerId{10, 0}), std::logic_error);
    EXPECT_THROW(mem.tracked(LayerId{0, 10}), std::logic_error);
    GpuMemoryManager empty;
    EXPECT_THROW(empty.tracked(LayerId{0, 0}), std::logic_error);
}

TEST(GpuMemoryManager, WithoutATableNothingIsTracked)
{
    GpuMemoryManager mem;
    EXPECT_EQ(mem.residentLayers(), 0u);
    LayerId victim;
    EXPECT_FALSE(mem.lruVictim(victim, 1));
    mem.reset();
    EXPECT_EQ(mem.peakBytes(), 0u);
}

} // namespace
} // namespace naspipe
