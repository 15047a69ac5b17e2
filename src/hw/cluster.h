/**
 * @file
 * Cluster model: hosts x GPUs plus the stage-to-stage links.
 *
 * Defaults reproduce the paper's testbed: 8 hosts x 4 Nvidia 2080Ti,
 * 20 CPU cores and 64 GB RAM per host, PCIe 3.0 x16 to each GPU and
 * 40 Gbps Ethernet between hosts. Pipeline stage i runs on GPU i,
 * hosts are filled in order (GPUs 0-3 on host 0, 4-7 on host 1, ...),
 * matching how the evaluation scales from 4 to 16 GPUs.
 */

#ifndef NASPIPE_HW_CLUSTER_H
#define NASPIPE_HW_CLUSTER_H

#include <memory>
#include <vector>

#include "hw/gpu.h"
#include "hw/interconnect.h"
#include "sim/simulator.h"

namespace naspipe {

/** Static cluster parameters. */
struct ClusterConfig {
    int numStages = 8;        ///< pipeline depth D == GPU count
    int gpusPerHost = 4;
    GpuConfig gpu;
    InterconnectConfig interconnect;
    std::uint64_t hostMemoryBytes = 64ULL << 30;  ///< pinned-CPU pool
};

/**
 * The simulated cluster: owns the GPUs and the links between
 * consecutive pipeline stages.
 */
class Cluster
{
  public:
    /**
     * @param sim owning simulator
     * @param config cluster parameters
     */
    Cluster(Simulator &sim, const ClusterConfig &config);

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    int numStages() const { return _config.numStages; }
    const ClusterConfig &config() const { return _config; }

    /** GPU serving pipeline stage @p stage. */
    Gpu &gpu(int stage);
    const Gpu &gpu(int stage) const;

    /** Host index of the GPU serving @p stage. */
    int hostOf(int stage) const;

    /**
     * Link carrying traffic from @p fromStage to the adjacent stage
     * in either direction (|from - to| must be 1).
     */
    StageLink &link(int fromStage, int toStage);

    /** @name Fault-state helpers (driven by the fault injector)
     * @{ */
    /** Fail-stop the GPU serving @p stage. */
    void failStage(int stage) { gpu(stage).fail(); }

    /** Slow both directions of the @p boundary↔boundary+1 link. */
    void degradeBoundary(int boundary, double factor);

    /** Restore both directions of a degraded/down boundary link. */
    void restoreBoundary(int boundary);

    /** Take both directions of a boundary link down (fail-stop). */
    void dropBoundary(int boundary);
    /** @} */

    /** CPU memory available for pinned parameter storage per host. */
    std::uint64_t hostMemoryBytes() const
    {
        return _config.hostMemoryBytes;
    }

    /** Sum of ALU utilizations over all GPUs in [0, windowEnd]. */
    double totalAluUtilization(double windowEnd) const;

    /** Mean bubble ratio over all GPU compute engines. */
    double meanBubbleRatio() const;

    /** Reset all engine statistics. */
    void reset();

  private:
    std::size_t linkIndex(int fromStage, int toStage) const;

    Simulator &_sim;
    ClusterConfig _config;
    std::vector<std::unique_ptr<Gpu>> _gpus;
    /// Links stored as [i*2] = i->i+1 (forward), [i*2+1] = i+1->i.
    std::vector<std::unique_ptr<StageLink>> _links;
};

} // namespace naspipe

#endif // NASPIPE_HW_CLUSTER_H
