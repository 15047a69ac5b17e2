/**
 * @file
 * Builds the unified MetricsRegistry of one run.
 *
 * One function gathers every metric surface the repo grew so far —
 * RunMetrics aggregates, per-stage worker accounting, commit-gate
 * numbers, the logical-schedule analysis, wall-mode stage
 * observations, and the profiled per-layer cost table — into a
 * single registry, tagging each entry Stable or Timing. The CLI's
 * --metrics-out serializes through here, so there is exactly one
 * naming scheme:
 *
 *   run/...        progress + identity (finished, batch, hash, ...)
 *   quality/...    final loss / score / violations
 *   gate/...       commit-gate totals
 *   stage/<s>/...  per-stage counters and (wall mode) seconds
 *   logical/...    deterministic logical-schedule analysis
 *   time/...       wall-clock aggregates (wall mode only)
 *   cache/...      context-cache accounting (wall mode only)
 *   profile/...    Table 5 reference layer costs
 */

#ifndef NASPIPE_OBS_METRICS_EXPORT_H
#define NASPIPE_OBS_METRICS_EXPORT_H

#include <cstdint>
#include <string>

#include "obs/logical_schedule.h"
#include "obs/metrics_registry.h"
#include "obs/run_observations.h"
#include "runtime/pipeline_runtime.h"

namespace naspipe {
namespace obs {

/** Identity of the run a metrics export describes. */
struct RunMetadata {
    std::string space;     ///< search-space name
    std::string executor;  ///< "sim" | "threads"
    std::uint64_t seed = 0;
    int steps = 0;
    int numStages = 0;
    int batch = 0;
    /** True when wall-clock (Timing) entries should be exported. */
    bool wallMode = false;
    /**
     * True when the backend's timing itself is deterministic (the
     * simulator): its seconds are simulated ticks, so they are
     * Stable and survive the logical-mode filter.
     */
    bool deterministicTiming = false;
};

/**
 * Populate a registry from a finished run.
 *
 * @param result the run's RunResult
 * @param observations wall-mode stage observations, or nullptr
 * @param logical logical-schedule analysis, or nullptr
 * @param meta run identity + export mode
 */
MetricsRegistry buildRunRegistry(const RunResult &result,
                                 const RunObservations *observations,
                                 const LogicalSchedule *logical,
                                 const RunMetadata &meta);

/**
 * Serialize the run's metrics as one JSON document (schema
 * "naspipe-metrics/1") with the run identity as header fields.
 * Logical mode (meta.wallMode == false) exports Stable entries only,
 * making the document byte-identical across identical-seed runs.
 */
std::string metricsJson(const RunResult &result,
                        const RunObservations *observations,
                        const LogicalSchedule *logical,
                        const RunMetadata &meta);

} // namespace obs
} // namespace naspipe

#endif // NASPIPE_OBS_METRICS_EXPORT_H
