/**
 * @file
 * GPU device model.
 *
 * Models one Nvidia 2080Ti-class device as the paper's testbed uses:
 * an exclusive compute engine (the ALU whose utilization Table 2 and
 * Figure 7 report), separate H2D and D2H DMA engines over PCIe 3.0
 * x16 (so parameter copies overlap compute, the property the context
 * manager exploits), and a fixed physical memory capacity.
 */

#ifndef NASPIPE_HW_GPU_H
#define NASPIPE_HW_GPU_H

#include <cstdint>
#include <memory>
#include <string>

#include "sim/resource.h"
#include "sim/simulator.h"

namespace naspipe {

/** Static description of one GPU device. */
struct GpuConfig {
    std::uint64_t memoryBytes = 11ULL << 30;  ///< 11 GB (2080Ti)
    double pcieBytesPerSec = 15760.0 * 1e6;   ///< PCIe 3.0 x16
    Tick pcieLatency = 10 * kTicksPerUs;      ///< DMA setup latency
};

/**
 * One GPU: compute engine + DMA engines + capacity. Utilization
 * statistics accumulate on the engines.
 */
class Gpu
{
  public:
    /**
     * @param sim owning simulator
     * @param id device index within the cluster
     * @param config device parameters
     */
    Gpu(Simulator &sim, int id, const GpuConfig &config);

    int id() const { return _id; }
    std::uint64_t memoryBytes() const { return _config.memoryBytes; }

    /** The ALU / SM array: exactly one task executes at a time. */
    SerialEngine &compute() { return _compute; }
    const SerialEngine &compute() const { return _compute; }

    /** Host-to-device DMA engine. */
    Channel &h2d() { return _h2d; }
    const Channel &h2d() const { return _h2d; }

    /** Device-to-host DMA engine. */
    Channel &d2h() { return _d2h; }
    const Channel &d2h() const { return _d2h; }

    /** ALU busy fraction of [0, windowEnd] seconds. */
    double aluUtilization(double windowEnd) const;

    /** @name Fault state (driven by the fault injector)
     * A failed GPU is a fail-stop condition: the runtime abandons the
     * phase and recovers from the last checkpoint on a rebuilt
     * cluster.
     * @{ */
    /** Mark the device dead (fail-stop fault). */
    void fail() { _failed = true; }

    /** Whether the device is currently dead. */
    bool failed() const { return _failed; }
    /** @} */

    /** Clear all engine statistics (between runs). */
    void reset();

  private:
    int _id;
    GpuConfig _config;
    SerialEngine _compute;
    Channel _h2d;
    Channel _d2h;
    bool _failed = false;
};

} // namespace naspipe

#endif // NASPIPE_HW_GPU_H
