/**
 * @file
 * Execution trace recorder.
 *
 * The trace records every scheduled task (forward/backward per stage)
 * with its start/end times. It backs three experiments: the schedule
 * timelines of Figure 1, the per-layer access order of Table 4, and
 * the deterministic replay check of the appendix.
 */

#ifndef NASPIPE_SIM_TRACE_H
#define NASPIPE_SIM_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/event.h"

namespace naspipe {

/** What a trace record describes. */
enum class TraceKind {
    Forward,      ///< forward pass of a subnet stage
    Backward,     ///< backward pass of a subnet stage
    Prefetch,     ///< parameter copy CPU -> GPU
    Evict,        ///< parameter copy GPU -> CPU
    MirrorSync,   ///< mirrored-parameter push between stages
    Stall,        ///< engine idle waiting for a synchronous swap
    Flush,        ///< BSP bulk barrier
    Fault,        ///< injected fault firing
    Checkpoint,   ///< run checkpoint written at a drain barrier
    Recovery,     ///< rollback + respawn after a fail-stop fault
};

/** Human-readable tag for a trace kind. */
const char *traceKindName(TraceKind kind);

/** One trace record. */
struct TraceRecord {
    Tick start = 0;
    Tick end = 0;
    int stage = -1;          ///< pipeline stage / GPU index
    TraceKind kind = TraceKind::Forward;
    std::int64_t subnet = -1;  ///< subnet sequence ID (-1: none)
    std::string detail;      ///< optional free-form annotation
};

/**
 * Append-only trace with filtered views. Recording can be switched
 * off entirely for the large throughput runs.
 */
class Trace
{
  public:
    /** Enable or disable recording (enabled by default). */
    void enabled(bool on) { _enabled = on; }
    bool enabled() const { return _enabled; }

    /** Append a record (ignored while disabled). */
    void add(const TraceRecord &record);

    /** All records in insertion order. */
    const std::vector<TraceRecord> &records() const { return _records; }

    /** Records of one kind, preserving order. */
    std::vector<TraceRecord> byKind(TraceKind kind) const;

    /** Records of one stage, preserving order. */
    std::vector<TraceRecord> byStage(int stage) const;

    /** Compute/task records (Forward/Backward) sorted by start time. */
    std::vector<TraceRecord> taskTimeline() const;

    /**
     * Render an ASCII Gantt chart of Forward/Backward records, one
     * row per stage, for small schedules (Figure 1 visualization).
     * @param columns horizontal resolution of the chart.
     */
    std::string renderTimeline(int numStages, int columns = 100) const;

    /** Drop all records. */
    void clear() { _records.clear(); }

    std::size_t size() const { return _records.size(); }

  private:
    bool _enabled = true;
    std::vector<TraceRecord> _records;
};

} // namespace naspipe

#endif // NASPIPE_SIM_TRACE_H
