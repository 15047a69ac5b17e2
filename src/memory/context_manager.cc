#include "memory/context_manager.h"

#include <algorithm>

#include "runtime/metrics.h"

namespace naspipe {

ContextManager::ContextManager(const SearchSpace &space, MemoryMode mode,
                               std::uint64_t budgetBytes, Gpu *gpu)
    : _space(space), _mode(mode), _budgetBytes(budgetBytes), _gpu(gpu)
{
}

void
ContextManager::enforceBudget(std::uint64_t incomingBytes, Tick now)
{
    if (_budgetBytes == 0)
        return;
    // The §4.2 memory-limit check: before copying an operator in,
    // make room by pushing out least-recently-used layers that are
    // not in use at this instant.
    while (_memory.residentBytes() + incomingBytes > _budgetBytes) {
        LayerId victim;
        if (!_memory.lruVictim(victim, now)) {
            // Everything resident is in use right now; admit over
            // budget rather than deadlock (the runtime's retry path).
            _stats.overBudgetFetches++;
            return;
        }
        evictLayer(victim, now);
        _stats.forcedEvictions++;
    }
}

Tick
ContextManager::fetchLayer(const LayerId &layer, std::uint64_t bytes,
                           Tick now)
{
    enforceBudget(bytes, now);
    // Queue the copy on the H2D engine; pinned CPU memory makes it
    // asynchronous with compute (§4.2). Without copy engines the
    // layer is usable at once.
    Tick done = _gpu ? _gpu->h2d().transferFrom(now, bytes) : now;
    return _memory.admit(layer, bytes, done);
}

void
ContextManager::evictLayer(const LayerId &layer, Tick now)
{
    std::uint64_t bytes = _memory.evict(layer);
    if (bytes) {
        // Dirty parameters are copied back to pinned CPU storage.
        if (_gpu)
            _gpu->d2h().transferFrom(now, bytes);
        _stats.evictedBytes += bytes;
    }
}

void
ContextManager::prefetch(const Subnet &subnet, int lo, int hi, Tick now)
{
    if (_mode != MemoryMode::PredictivePrefetch)
        return;
    _stats.prefetchRequests++;
    for (int b = lo; b <= hi; b++) {
        std::uint64_t bytes =
            _space.spec(b, subnet.choice(b)).paramBytes;
        if (bytes == 0)
            continue;  // skip candidates have no context
        LayerId layer = subnet.layer(b);
        if (_memory.tracked(layer))
            continue;
        fetchLayer(layer, bytes, now);
        _stats.prefetchedBytes += bytes;
    }
}

Tick
ContextManager::ensureResident(const Subnet &subnet, int lo, int hi,
                               Tick now)
{
    if (_mode == MemoryMode::AllResident)
        return now;

    // VPipe behaviour: before switching to the new task's context,
    // push out the previous task's layers that it does not reuse.
    if (_mode == MemoryMode::SwapOnDemand && !_lastTaskKeys.empty()) {
        std::vector<std::uint64_t> needed;
        needed.reserve(static_cast<std::size_t>(hi - lo + 1));
        for (int b = lo; b <= hi; b++)
            needed.push_back(subnet.layer(b).key());
        std::sort(needed.begin(), needed.end());
        for (std::uint64_t key : _lastTaskKeys) {
            if (!std::binary_search(needed.begin(), needed.end(),
                                    key)) {
                LayerId layer{
                    static_cast<std::uint32_t>(key >> 32),
                    static_cast<std::uint32_t>(key & 0xffffffffULL)};
                evictLayer(layer, now);
            }
        }
        _lastTaskKeys.clear();
    }

    Tick ready = now;
    for (int b = lo; b <= hi; b++) {
        std::uint64_t bytes =
            _space.spec(b, subnet.choice(b)).paramBytes;
        if (bytes == 0)
            continue;  // skip candidates have no context
        LayerId layer = subnet.layer(b);
        Tick available;
        if (_memory.tracked(layer)) {
            available = _memory.availableAt(layer);
            // Tracked means the predictor anticipated this layer: it
            // is resident or its asynchronous copy is in flight, so
            // no *synchronous* swap-in stalls the stage — the event
            // the cache-hit metric counts (§3.3).
            _memory.hitStats().hit();
        } else {
            _memory.hitStats().miss();
            available = fetchLayer(layer, bytes, now);
            _stats.syncFetches++;
            _stats.syncFetchedBytes += bytes;
        }
        // Every layer of the task carries the same instant, so none
        // of them can be evicted to make room for a sibling.
        _memory.touch(layer, std::max(available, now));
        ready = std::max(ready, available);
    }

    if (_mode == MemoryMode::SwapOnDemand) {
        _lastTaskKeys.clear();
        for (int b = lo; b <= hi; b++)
            _lastTaskKeys.push_back(subnet.layer(b).key());
        std::sort(_lastTaskKeys.begin(), _lastTaskKeys.end());
    }
    return ready;
}

void
ContextManager::evictSubnet(const Subnet &subnet, int lo, int hi,
                            Tick now)
{
    if (_mode != MemoryMode::PredictivePrefetch)
        return;
    for (int b = lo; b <= hi; b++) {
        if (_space.spec(b, subnet.choice(b)).paramBytes > 0)
            evictLayer(subnet.layer(b), now);
    }
}

void
ContextManager::reset()
{
    _memory.reset();
    _stats = ContextStats();
    _lastTaskKeys.clear();
}

void
reportCacheMetrics(const std::vector<const ContextManager *> &stages,
                   RunMetrics &m)
{
    if (stages.empty() || stages[0]->mode() == MemoryMode::AllResident)
        return;
    std::uint64_t hits = 0, misses = 0;
    for (const ContextManager *ctx : stages) {
        hits += ctx->memory().hitStats().hits();
        misses += ctx->memory().hitStats().misses();
        m.prefetchedBytes += ctx->stats().prefetchedBytes;
        m.syncFetchedBytes += ctx->stats().syncFetchedBytes;
        m.cachePeakBytes =
            std::max(m.cachePeakBytes, ctx->memory().peakBytes());
        m.cacheBudgetBytes = ctx->budgetBytes();
    }
    m.cacheHitRate = (hits + misses)
                         ? static_cast<double>(hits) / (hits + misses)
                         : 0.0;
}

} // namespace naspipe
