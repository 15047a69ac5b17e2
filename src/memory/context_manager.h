/**
 * @file
 * Context manager: the per-stage process that keeps the right layer
 * parameters on the GPU (§3.1, §4.2).
 *
 * The manager owns the stage's resident-set bookkeeping and the DMA
 * traffic. Under PredictivePrefetch (NASPipe) it asynchronously
 * fetches the contexts the predictor requests and evicts a subnet's
 * stage context right after its backward pass. Under SwapOnDemand
 * (VPipe) there is no lookahead: the missing context is swapped in
 * synchronously when execution reaches it, after evicting the
 * previous task's context. Under AllResident (GPipe/PipeDream and
 * the w/o-predictor ablation) everything lives on the GPU and the
 * manager is a no-op.
 *
 * Both executors own one manager per stage. The caller supplies the
 * clock on every call: the simulator passes its discrete-event time,
 * a threaded StageWorker a per-worker logical counter that advances
 * once per prefetch and once per executed task, which gives LRU the
 * same shape (layers touched by the task being executed carry the
 * current instant and are never victims of its own admissions). A
 * manager built with a GPU queues copies on its DMA engines; one
 * built without (the threaded executor, whose parameters live in the
 * shared ParameterStore) models copies that are usable at once. The
 * manager is pure bookkeeping: it never gates execution, so
 * residency decisions cannot perturb the trained weights.
 */

#ifndef NASPIPE_MEMORY_CONTEXT_MANAGER_H
#define NASPIPE_MEMORY_CONTEXT_MANAGER_H

#include <cstdint>
#include <vector>

#include "hw/gpu.h"
#include "memory/gpu_memory.h"
#include "schedule/scheduler.h"
#include "supernet/search_space.h"
#include "supernet/subnet.h"

namespace naspipe {

struct RunMetrics;

/** DMA and hit-rate statistics of one stage's context manager. */
struct ContextStats {
    std::uint64_t prefetchedBytes = 0;
    std::uint64_t syncFetchedBytes = 0;
    std::uint64_t evictedBytes = 0;
    std::uint64_t prefetchRequests = 0;
    std::uint64_t syncFetches = 0;
    /// LRU evictions forced by the memory-limit check (§4.2).
    std::uint64_t forcedEvictions = 0;
    /// Copies admitted above budget because nothing was evictable.
    std::uint64_t overBudgetFetches = 0;
};

/**
 * Per-stage context manager.
 */
class ContextManager
{
  public:
    /**
     * @param space the search space
     * @param mode memory management strategy
     * @param budgetBytes parameter-cache budget; "NASPipe invokes a
     *        GPU memory limit checking before it copies an operator
     *        to GPU" (§4.2) — a copy that would exceed the budget
     *        first evicts least-recently-used idle layers. 0 means
     *        unlimited.
     * @param gpu the stage's GPU, whose DMA engines carry the copies;
     *        nullptr when the stage has no copy engines
     */
    ContextManager(const SearchSpace &space, MemoryMode mode,
                   std::uint64_t budgetBytes = 0, Gpu *gpu = nullptr);

    MemoryMode mode() const { return _mode; }
    std::uint64_t budgetBytes() const { return _budgetBytes; }

    /**
     * Predictor-driven asynchronous fetch of @p subnet's context for
     * blocks [lo, hi] at time @p now. No-op outside
     * PredictivePrefetch mode.
     */
    void prefetch(const Subnet &subnet, int lo, int hi, Tick now);

    /**
     * Make @p subnet's blocks [lo, hi] resident for execution at
     * @p now. Classifies each layer as hit/miss, issues synchronous
     * fetches for misses, and returns the time at which every layer
     * is usable.
     */
    Tick ensureResident(const Subnet &subnet, int lo, int hi, Tick now);

    /**
     * Evict @p subnet's stage context after its backward pass
     * (PredictivePrefetch); parameters are dirty, so the copy-back
     * occupies the D2H engine from @p now.
     */
    void evictSubnet(const Subnet &subnet, int lo, int hi, Tick now);

    /** Resident-set accounting. */
    const GpuMemoryManager &memory() const { return _memory; }

    /** Cache-hit rate over all ensureResident classifications. */
    double cacheHitRate() const { return _memory.hitStats().rate(); }

    const ContextStats &stats() const { return _stats; }

    void reset();

  private:
    Tick fetchLayer(const LayerId &layer, std::uint64_t bytes,
                    Tick now);
    void evictLayer(const LayerId &layer, Tick now);
    void enforceBudget(std::uint64_t incomingBytes, Tick now);

    const SearchSpace &_space;
    MemoryMode _mode;
    std::uint64_t _budgetBytes;
    Gpu *_gpu;
    GpuMemoryManager _memory;
    ContextStats _stats;
    /// SwapOnDemand: layer keys of the previously executed task.
    std::vector<std::uint64_t> _lastTaskKeys;
};

/**
 * Fold the per-stage managers' accounting into @p m: hit rate over
 * all stages, prefetched and synchronously fetched bytes, the largest
 * resident set and the enforced budget. AllResident runs have no
 * cache and leave the hit rate empty.
 */
void reportCacheMetrics(const std::vector<const ContextManager *> &stages,
                        RunMetrics &m);

} // namespace naspipe

#endif // NASPIPE_MEMORY_CONTEXT_MANAGER_H
