/**
 * @file
 * Scheduling policy abstraction and system models.
 *
 * The four evaluated systems (NASPipe, GPipe, PipeDream, VPipe) and
 * the three ablated NASPipe variants differ along independent axes:
 * which task a free stage runs next (the policy), whether bulk
 * barriers gate injection (BSP), how GPU memory is managed, whether
 * subnets run under balanced per-subnet partitions, and whether
 * weight stashing or activation recomputation is used. SystemModel
 * captures one point in that space; the pipeline runtime executes any
 * SystemModel over the simulated cluster.
 */

#ifndef NASPIPE_SCHEDULE_SCHEDULER_H
#define NASPIPE_SCHEDULE_SCHEDULER_H

#include <memory>
#include <string>
#include <vector>

#include "schedule/dependency.h"
#include "schedule/task.h"
#include "supernet/subnet.h"

namespace naspipe {

/** Task-selection policy family. */
enum class PolicyKind {
    Csp,     ///< NASPipe: Algorithm 1/2, dependency-preserving
    Greedy,  ///< GPipe/PipeDream/VPipe: bwd first, fwd in ID order
    Ssp,     ///< bounded staleness (the CSP<->ASP spectrum, §2.3)
};

/** GPU memory management strategy. */
enum class MemoryMode {
    AllResident,         ///< whole supernet pinned in GPU memory
    SwapOnDemand,        ///< VPipe: one subnet resident, sync swaps
    PredictivePrefetch,  ///< NASPipe: predictor-driven, ~3 subnets
};

/** Printable names. */
const char *policyKindName(PolicyKind kind);
const char *memoryModeName(MemoryMode mode);

/**
 * What a policy may observe about a stage when picking the next
 * task. Implemented by the runtime's per-stage state.
 */
class StageInfo
{
  public:
    virtual ~StageInfo() = default;

    /** This stage's index. */
    virtual int stageIndex() const = 0;

    /** Pipeline depth D. */
    virtual int numStages() const = 0;

    /** Forward tasks whose inputs have arrived, in arrival order. */
    virtual const std::vector<SubnetId> &fwdCandidates() const = 0;

    /** Backward tasks whose gradients have arrived, arrival order. */
    virtual const std::vector<SubnetId> &bwdCandidates() const = 0;

    /** The subnet with sequence ID @p id. */
    virtual const Subnet &subnet(SubnetId id) const = 0;

    /** This stage's block range under @p id's execution partition. */
    virtual std::pair<int, int> blockRange(SubnetId id) const = 0;

    /** The stage-local dependency tracker (L_SN, L_f, frontier). */
    virtual const DependencyTracker &deps() const = 0;

    /**
     * Whether every earlier subnet sharing a layer with @p id's
     * blocks on this stage has already *applied and pushed* its
     * parameter update (the mirror copies on this stage are up to
     * date, §4.2). Algorithm 2's local finished-list check alone
     * cannot see a pending write executing on an earlier stage of a
     * differently partitioned subnet; dispatching must also wait for
     * the mirrored parameters to arrive.
     */
    virtual bool upstreamWritesDone(SubnetId id) const = 0;
};

/**
 * A task-selection policy: given the stage view, decide what runs.
 */
class SchedulerPolicy
{
  public:
    virtual ~SchedulerPolicy() = default;

    /** Pick the next task for a free stage, or Decision::none(). */
    virtual Decision pick(const StageInfo &stage) const = 0;

    /** Policy display name. */
    virtual const char *name() const = 0;
};

/**
 * Greedy baseline policy: backward tasks first (lowest ID), then the
 * lowest-ID forward task — with *no* causal dependency check. GPipe,
 * PipeDream and VPipe all select this way; their remaining
 * differences (flush, stashing, memory) live in SystemModel.
 */
class GreedyPolicy : public SchedulerPolicy
{
  public:
    Decision pick(const StageInfo &stage) const override;
    const char *name() const override { return "greedy"; }
};

/**
 * Full description of one training system to simulate.
 */
struct SystemModel {
    std::string name;                ///< display name ("NASPipe")
    PolicyKind policy = PolicyKind::Csp;
    int staleness = 0;               ///< SSP staleness bound
    MemoryMode memory = MemoryMode::PredictivePrefetch;
    bool bulkFlush = false;          ///< BSP barrier per bulk
    int bulkSize = 0;                ///< subnets per bulk (0: = D)
    bool balancedPartition = true;   ///< per-subnet balanced stages
    bool mirroring = true;           ///< mirror layers across stages
    bool weightStash = false;        ///< PipeDream weight stashing
    bool recompute = true;           ///< activation recomputation
    bool predictor = true;           ///< context predictor enabled
    int maxInflight = 0;             ///< concurrent subnets (0: 2*D)

    /** Effective bulk size at pipeline depth @p numStages. */
    int effectiveBulk(int numStages) const;

    /** Effective in-flight limit at pipeline depth @p numStages. */
    int effectiveInflight(int numStages) const;

    /** Whether this model preserves CSP's dependency property. */
    bool preservesDependencies() const
    {
        return policy == PolicyKind::Csp;
    }

    /** Synchronization label for reports ("CSP"/"BSP"/"ASP"). */
    const char *syncName() const;
};

/** Instantiate the policy object a SystemModel calls for. */
std::unique_ptr<SchedulerPolicy> makePolicy(const SystemModel &model);

/** @name Evaluated system models (paper §5, baselines + NASPipe)
 * @{ */
SystemModel naspipeSystem();
SystemModel gpipeSystem();
SystemModel pipedreamSystem();
SystemModel vpipeSystem();
/** @} */

/** @name Ablated NASPipe variants (paper §5.3)
 * @{ */
SystemModel naspipeWithoutScheduler();
SystemModel naspipeWithoutPredictor();
SystemModel naspipeWithoutMirroring();
/** @} */

} // namespace naspipe

#endif // NASPIPE_SCHEDULE_SCHEDULER_H
