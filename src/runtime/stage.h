/**
 * @file
 * Per-stage runtime state: the queues, dependency tracker, context
 * manager and predictor of one pipeline worker (one GPU).
 *
 * This is the stateful half of Algorithm 1; the event handling that
 * drives it lives in PipelineRuntime.
 */

#ifndef NASPIPE_RUNTIME_STAGE_H
#define NASPIPE_RUNTIME_STAGE_H

#include <functional>
#include <map>
#include <vector>

#include "hw/gpu.h"
#include "memory/context_manager.h"
#include "schedule/dependency.h"
#include "schedule/predictor.h"
#include "schedule/scheduler.h"

namespace naspipe {

/**
 * One pipeline stage's runtime state; implements the StageInfo view
 * scheduling policies observe.
 */
class Stage : public StageInfo
{
  public:
    /** Callbacks the stage needs from the runtime. */
    struct Hooks {
        /** Block range of a subnet's partition on a given stage. */
        std::function<std::pair<int, int>(SubnetId)> blockRange;
        /** Mirror-visibility check (StageInfo::upstreamWritesDone). */
        std::function<bool(SubnetId)> upstreamWritesDone;
    };

    /**
     * @param space the search space
     * @param gpu the GPU serving this stage
     * @param index stage index
     * @param numStages pipeline depth
     * @param memory memory mode for the context manager
     * @param hooks runtime callbacks
     * @param cacheBudgetBytes context-manager budget (0: unlimited)
     */
    Stage(const SearchSpace &space, Gpu &gpu, int index, int numStages,
          MemoryMode memory, Hooks hooks,
          std::uint64_t cacheBudgetBytes = 0);

    // --- StageInfo interface (what policies may see). ---
    int stageIndex() const override { return _index; }
    int numStages() const override { return _numStages; }
    const std::vector<SubnetId> &fwdCandidates() const override
    {
        return _fwdQueue;
    }
    const std::vector<SubnetId> &bwdCandidates() const override
    {
        return _bwdQueue;
    }
    const Subnet &subnet(SubnetId id) const override
    {
        return _deps.subnet(id);
    }
    std::pair<int, int> blockRange(SubnetId id) const override
    {
        return _hooks.blockRange(id);
    }
    const DependencyTracker &deps() const override { return _deps; }
    bool upstreamWritesDone(SubnetId id) const override
    {
        return _hooks.upstreamWritesDone(id);
    }

    // --- Runtime-side mutators. ---
    /** Register a newly retrieved subnet (L_SN.append). */
    void registerSubnet(const Subnet &subnet)
    {
        _deps.registerSubnet(subnet);
    }

    /** Enqueue an arrived forward task (L_q.append). */
    void pushFwd(SubnetId id);

    /** Enqueue an arrived backward task with predictor metadata. */
    void pushBwd(SubnetId id, std::vector<PendingBackward> nextBwds);

    /** Remove a dispatched forward candidate (L_q.pop). */
    void popFwd(SubnetId id);

    /** Remove a dispatched backward candidate; returns its metadata. */
    std::vector<PendingBackward> popBwd(SubnetId id);

    /** Mutable dependency tracker (markFinished on backward). */
    DependencyTracker &mutableDeps() { return _deps; }

    ContextManager &ctx() { return _ctx; }
    const ContextManager &ctx() const { return _ctx; }

    Predictor &predictor() { return _predictor; }

    Gpu &gpu() { return _gpu; }
    const Gpu &gpu() const { return _gpu; }

    /** Total busy compute seconds this stage accumulated. */
    double busySeconds() const
    {
        return _gpu.compute().utilization().busyTime();
    }

  private:
    Gpu &_gpu;
    int _index;
    int _numStages;
    Hooks _hooks;
    DependencyTracker _deps;
    ContextManager _ctx;
    Predictor _predictor;
    std::vector<SubnetId> _fwdQueue;
    std::vector<SubnetId> _bwdQueue;
    std::map<SubnetId, std::vector<PendingBackward>> _bwdMeta;
};

} // namespace naspipe

#endif // NASPIPE_RUNTIME_STAGE_H
