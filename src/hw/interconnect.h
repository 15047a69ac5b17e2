/**
 * @file
 * Inter-GPU interconnect model.
 *
 * The testbed (paper §5) connects 4 GPUs per host over PCIe 3.0 x16
 * and hosts over 40 Gbps Ethernet with 0.17 ms ping latency; the
 * measured application-level cross-host bandwidth was 867 MB/s. The
 * pipeline sends activations forward and gradients backward over the
 * link between consecutive stages; whether that link is intra-host
 * PCIe peer-to-peer or cross-host Ethernet depends on where the two
 * stages' GPUs live.
 */

#ifndef NASPIPE_HW_INTERCONNECT_H
#define NASPIPE_HW_INTERCONNECT_H

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/resource.h"
#include "sim/simulator.h"

namespace naspipe {

/** Link technology between two GPUs. */
enum class LinkType {
    IntraHostPcie,   ///< PCIe peer-to-peer within one host
    CrossHostEther,  ///< Ethernet between hosts
};

/** Printable link-type name. */
const char *linkTypeName(LinkType type);

/** Parameters of the two link technologies. */
struct InterconnectConfig {
    double intraHostBytesPerSec = 11.0 * 1e9;   ///< PCIe p2p payload
    Tick intraHostLatency = 5 * kTicksPerUs;
    double crossHostBytesPerSec = 867.0 * 1e6;  ///< measured (paper §5)
    Tick crossHostLatency = 170 * kTicksPerUs;  ///< 0.17 ms ping
};

/**
 * A directed link between two pipeline stages (one per direction per
 * stage pair: the forward activation path and the backward gradient
 * path share the physical medium but are modelled as one serialized
 * channel, which is conservative and matches duplex contention on
 * PCIe switches).
 */
class StageLink
{
  public:
    /**
     * @param sim owning simulator
     * @param fromStage producer stage index
     * @param toStage consumer stage index
     * @param type link technology
     * @param config bandwidth/latency parameters
     */
    StageLink(Simulator &sim, int fromStage, int toStage, LinkType type,
              const InterconnectConfig &config);

    LinkType type() const { return _type; }
    int fromStage() const { return _from; }
    int toStage() const { return _to; }

    /** Completion time of a @p bytes message sent at/after now. */
    Tick send(std::uint64_t bytes);

    /** Completion time of a message sent no earlier than @p earliest. */
    Tick sendFrom(Tick earliest, std::uint64_t bytes);

    /** Wire time of @p bytes excluding queueing. */
    Tick messageTime(std::uint64_t bytes) const;

    /** @name Fault state (driven by the fault injector)
     * A degraded link delivers at 1/factor of its bandwidth (modeled
     * as factor-times-larger payloads); a down link is a fail-stop
     * condition — in-flight traffic is lost and the runtime recovers
     * from the last checkpoint.
     * @{ */
    /** Slow the link down by @p factor (>= 1). */
    void degrade(double factor);

    /** Restore nominal bandwidth and bring the link back up. */
    void restore();

    /** Take the link down (fail-stop fault). */
    void setDown() { _down = true; }

    bool down() const { return _down; }
    /** @} */

    const Channel &channel() const { return _channel; }

    void reset()
    {
        _channel.reset();
        _slowdown = 1.0;
        _down = false;
    }

  private:
    std::uint64_t effectiveBytes(std::uint64_t bytes) const;

    int _from;
    int _to;
    LinkType _type;
    Channel _channel;
    double _slowdown = 1.0;
    bool _down = false;
};

} // namespace naspipe

#endif // NASPIPE_HW_INTERCONNECT_H
