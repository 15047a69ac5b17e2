/**
 * @file
 * Context manager tests: prefetch, sync fetch, eviction, hit rates,
 * with the simulator's DMA engines and without copy engines (the
 * threaded executor's logical-clock mode).
 */

#include <gtest/gtest.h>

#include "memory/context_manager.h"

namespace naspipe {
namespace {

struct ContextFixture : ::testing::Test {
    ContextFixture()
        : space("x", SpaceFamily::Nlp, 8, 4, 3),
          gpu(sim, 0, GpuConfig{})
    {
    }

    Subnet
    subnet(SubnetId id = 0)
    {
        return Subnet(id, {0, 1, 2, 3, 0, 1, 2, 3});
    }

    Simulator sim;
    SearchSpace space;
    Gpu gpu;
};

TEST_F(ContextFixture, AllResidentIsAlwaysReady)
{
    ContextManager ctx(space, MemoryMode::AllResident, 0, &gpu);
    Tick ready = ctx.ensureResident(subnet(), 0, 7, sim.now());
    EXPECT_EQ(ready, sim.now());
    EXPECT_EQ(ctx.memory().hitStats().total(), 0u);
    EXPECT_EQ(ctx.stats().syncFetches, 0u);
}

TEST_F(ContextFixture, PrefetchMakesLaterAccessAHit)
{
    ContextManager ctx(space, MemoryMode::PredictivePrefetch, 0, &gpu);
    ctx.prefetch(subnet(), 0, 3, sim.now());
    EXPECT_GT(ctx.stats().prefetchedBytes, 0u);
    Tick ready = ctx.ensureResident(subnet(), 0, 3, sim.now());
    // All four layers anticipated: all hits.
    EXPECT_EQ(ctx.memory().hitStats().hits(), 4u);
    EXPECT_EQ(ctx.memory().hitStats().misses(), 0u);
    EXPECT_EQ(ctx.stats().syncFetches, 0u);
    // The copies still take PCIe time.
    EXPECT_GT(ready, sim.now());
}

TEST_F(ContextFixture, ColdAccessIsAMissWithSyncFetch)
{
    ContextManager ctx(space, MemoryMode::PredictivePrefetch, 0, &gpu);
    ctx.ensureResident(subnet(), 0, 3, sim.now());
    EXPECT_EQ(ctx.memory().hitStats().misses(), 4u);
    EXPECT_EQ(ctx.stats().syncFetches, 4u);
    EXPECT_DOUBLE_EQ(ctx.memory().hitStats().rate(), 0.0);
}

TEST_F(ContextFixture, SecondAccessHits)
{
    ContextManager ctx(space, MemoryMode::PredictivePrefetch, 0, &gpu);
    ctx.ensureResident(subnet(), 0, 3, sim.now());
    // e.g. the backward pass
    ctx.ensureResident(subnet(), 0, 3, sim.now());
    EXPECT_EQ(ctx.memory().hitStats().hits(), 4u);
    EXPECT_DOUBLE_EQ(ctx.memory().hitStats().rate(), 0.5);
}

TEST_F(ContextFixture, EvictionFreesAndCopiesBack)
{
    ContextManager ctx(space, MemoryMode::PredictivePrefetch, 0, &gpu);
    ctx.ensureResident(subnet(), 0, 3, sim.now());
    std::uint64_t resident = ctx.memory().residentBytes();
    ASSERT_GT(resident, 0u);
    ctx.evictSubnet(subnet(), 0, 3, sim.now());
    EXPECT_EQ(ctx.memory().residentBytes(), 0u);
    EXPECT_EQ(ctx.stats().evictedBytes, resident);
}

TEST_F(ContextFixture, PrefetchIsNoOpOutsidePredictiveMode)
{
    ContextManager ctx(space, MemoryMode::SwapOnDemand, 0, &gpu);
    ctx.prefetch(subnet(), 0, 3, sim.now());
    EXPECT_EQ(ctx.stats().prefetchedBytes, 0u);
    EXPECT_EQ(ctx.memory().residentLayers(), 0u);
}

TEST_F(ContextFixture, SwapOnDemandEvictsPreviousContext)
{
    ContextManager ctx(space, MemoryMode::SwapOnDemand, 0, &gpu);
    Subnet a(0, {0, 0, 0, 0, 0, 0, 0, 0});
    Subnet b(1, {1, 1, 1, 1, 1, 1, 1, 1});
    ctx.ensureResident(a, 0, 3, sim.now());
    std::uint64_t afterA = ctx.memory().residentBytes();
    ctx.ensureResident(b, 0, 3, sim.now());
    // a's layers were evicted; only b's context remains.
    EXPECT_GT(ctx.stats().evictedBytes, 0u);
    EXPECT_EQ(ctx.memory().residentLayers(), 4u);
    EXPECT_GT(afterA, 0u);
}

TEST_F(ContextFixture, SwapOnDemandKeepsSharedLayers)
{
    ContextManager ctx(space, MemoryMode::SwapOnDemand, 0, &gpu);
    Subnet a(0, {0, 0, 2, 3, 0, 1, 2, 3});
    Subnet b(1, {0, 0, 1, 1, 0, 1, 2, 3});  // shares blocks 0,1
    ctx.ensureResident(a, 0, 3, sim.now());
    ctx.ensureResident(b, 0, 3, sim.now());
    // Blocks 0 and 1 stayed resident => 2 hits.
    EXPECT_EQ(ctx.memory().hitStats().hits(), 2u);
}

TEST_F(ContextFixture, SkipLayersNeverTouchTheCache)
{
    SearchSpace skippy("s", SpaceFamily::Nlp, 8, 4, 3, 0.4);
    ContextManager ctx(skippy, MemoryMode::PredictivePrefetch, 0, &gpu);
    Subnet sn(0, {0, 0, 1, 2, 0, 0, 1, 2});  // 4 skip blocks
    ctx.ensureResident(sn, 0, 7, sim.now());
    EXPECT_EQ(ctx.memory().hitStats().total(), 4u);
    EXPECT_EQ(ctx.memory().residentLayers(), 4u);
}

TEST_F(ContextFixture, BudgetForcesLruEviction)
{
    // Budget fits roughly half the subnet's context: the memory
    // limit check (§4.2) must push out idle layers as new ones come.
    std::uint64_t full = subnet().paramBytes(space);
    ContextManager ctx(space, MemoryMode::PredictivePrefetch, full / 2,
                       &gpu);
    // Touch layers at increasing times so LRU order is well-defined.
    auto touch = [&](int lo, int hi) {
        ctx.ensureResident(subnet(), lo, hi, sim.now());
    };
    sim.scheduleAt(0, [&] { touch(0, 1); });
    sim.scheduleAt(kTicksPerMs, [&] { touch(2, 3); });
    sim.scheduleAt(2 * kTicksPerMs, [&] { touch(4, 7); });
    sim.run();
    EXPECT_GT(ctx.stats().forcedEvictions, 0u);
    EXPECT_LE(ctx.memory().residentBytes(),
              full / 2 + (64ULL << 20));  // at most one layer over
}

TEST_F(ContextFixture, BudgetNeverEvictsLayersInUse)
{
    // Budget smaller than one task's context: the check must admit
    // over budget instead of evicting what the task is touching.
    ContextManager ctx(space, MemoryMode::PredictivePrefetch, 1, &gpu);
    ctx.ensureResident(subnet(), 0, 7, sim.now());
    EXPECT_EQ(ctx.memory().residentLayers(), 8u);
    EXPECT_GT(ctx.stats().overBudgetFetches, 0u);
}

TEST_F(ContextFixture, UnlimitedBudgetNeverForcesEviction)
{
    ContextManager ctx(space, MemoryMode::PredictivePrefetch, 0, &gpu);
    ctx.ensureResident(subnet(), 0, 7, sim.now());
    EXPECT_EQ(ctx.stats().forcedEvictions, 0u);
    EXPECT_EQ(ctx.stats().overBudgetFetches, 0u);
}

TEST_F(ContextFixture, ResetClearsState)
{
    ContextManager ctx(space, MemoryMode::PredictivePrefetch, 0, &gpu);
    ctx.ensureResident(subnet(), 0, 3, sim.now());
    ctx.reset();
    EXPECT_EQ(ctx.memory().residentBytes(), 0u);
    EXPECT_EQ(ctx.stats().syncFetches, 0u);
}

/** Exact accounting of one fixed call sequence. */
struct SequenceCounts {
    std::uint64_t hits, misses, syncFetches, prefetchedBytes,
        evictedBytes, forcedEvictions, overBudgetFetches, peakBytes;
};

/**
 * Drive a channel-less manager the way a StageWorker does: the clock
 * advances once per prefetch and once per executed task, and a
 * subnet's context is evicted after its backward pass. The budget of
 * one whole subnet (about 1.7 stage contexts of blocks [0, 3]) forces
 * LRU evictions once three contexts are in flight.
 */
SequenceCounts
runWorkerSequence(const SearchSpace &space, MemoryMode mode)
{
    Subnet a(0, {0, 1, 2, 3, 0, 1, 2, 3});
    Subnet b(1, {1, 1, 2, 2, 1, 1, 2, 2});
    Subnet c(2, {3, 2, 1, 0, 3, 2, 1, 0});
    ContextManager ctx(space, mode, a.paramBytes(space));
    Tick clock = 0;
    ctx.prefetch(a, 0, 3, ++clock);
    ctx.prefetch(b, 0, 3, ++clock);
    ctx.ensureResident(a, 0, 3, ++clock);  // forward a
    ctx.prefetch(c, 0, 3, ++clock);
    ctx.ensureResident(b, 0, 3, ++clock);  // forward b
    ctx.ensureResident(a, 0, 3, ++clock);  // backward a
    ctx.evictSubnet(a, 0, 3, clock);
    ctx.ensureResident(c, 0, 3, ++clock);  // forward c
    ctx.ensureResident(b, 0, 3, ++clock);  // backward b
    ctx.evictSubnet(b, 0, 3, clock);
    ctx.ensureResident(c, 0, 3, ++clock);  // backward c
    ctx.evictSubnet(c, 0, 3, clock);
    const ContextStats &s = ctx.stats();
    return {ctx.memory().hitStats().hits(),
            ctx.memory().hitStats().misses(),
            s.syncFetches,
            s.prefetchedBytes,
            s.evictedBytes,
            s.forcedEvictions,
            s.overBudgetFetches,
            ctx.memory().peakBytes()};
}

TEST_F(ContextFixture, WithoutCopyEnginesWorkerSequenceCounts)
{
    struct Case {
        MemoryMode mode;
        SequenceCounts want;
    };
    const Case cases[] = {
        {MemoryMode::AllResident, {0, 0, 0, 0, 0, 0, 0, 0}},
        {MemoryMode::SwapOnDemand,
         {4, 20, 20, 0, 225152699, 0, 0, 71135543}},
        {MemoryMode::PredictivePrefetch,
         {17, 7, 7, 148144121, 257466911, 5, 0, 120833918}},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(static_cast<int>(c.mode));
        SequenceCounts n = runWorkerSequence(space, c.mode);
        EXPECT_EQ(n.hits, c.want.hits);
        EXPECT_EQ(n.misses, c.want.misses);
        EXPECT_EQ(n.syncFetches, c.want.syncFetches);
        EXPECT_EQ(n.prefetchedBytes, c.want.prefetchedBytes);
        EXPECT_EQ(n.evictedBytes, c.want.evictedBytes);
        EXPECT_EQ(n.forcedEvictions, c.want.forcedEvictions);
        EXPECT_EQ(n.overBudgetFetches, c.want.overBudgetFetches);
        EXPECT_EQ(n.peakBytes, c.want.peakBytes);
    }
}

TEST_F(ContextFixture, WithoutCopyEnginesCopiesAreReadyAtOnce)
{
    ContextManager ctx(space, MemoryMode::PredictivePrefetch);
    ctx.prefetch(subnet(), 0, 3, 5);
    // Prefetched and synchronously fetched layers alike are usable
    // at the instant of the call: no copy takes time.
    EXPECT_EQ(ctx.ensureResident(subnet(), 0, 7, 9), 9u);
    EXPECT_EQ(ctx.memory().hitStats().hits(), 4u);
    EXPECT_EQ(ctx.memory().hitStats().misses(), 4u);
}

} // namespace
} // namespace naspipe
