/**
 * @file
 * Chrome trace-event exporter for span streams.
 *
 * Renders TraceRecord spans as a Chrome/Perfetto trace:
 *
 *   {"traceEvents":[ ...metadata..., ...X events... ],
 *    "displayTimeUnit":"ms",
 *    "otherData":{"schema":"naspipe-trace/1", ...run header...}}
 *
 * The one Chrome trace exporter (naspipe_cli's --trace and
 * --trace-out both write through it). It emits thread-name metadata
 * so Perfetto labels the tracks ("stage 0" .. "stage D-1"), carries
 * the run header (space, executor, mode, seed, steps) for
 * provenance, and formats every number through fixed-digit
 * formatting — the output is a pure function of the record list, so
 * logical-mode traces are byte-identical across identical-seed runs.
 */

#ifndef NASPIPE_OBS_TRACE_EXPORT_H
#define NASPIPE_OBS_TRACE_EXPORT_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/trace.h"

namespace naspipe {
namespace obs {

/** Run provenance embedded in the exported trace. */
struct TraceHeader {
    std::string space;     ///< search-space name (e.g. "NLP.c1")
    std::string executor;  ///< "sim" | "threads"
    std::string mode;      ///< "logical" | "wall"
    std::uint64_t seed = 0;
    int steps = 0;
    int numStages = 0;
};

/** Schema identifier emitted in every exported trace. */
const char *traceSchemaName();

/**
 * Serialize @p records as Chrome trace-event JSON. Records are
 * emitted in the given order; callers wanting byte-stable output
 * pass a canonically sorted list (logical mode does).
 */
std::string chromeTraceJson(const std::vector<TraceRecord> &records,
                            const TraceHeader &header);

} // namespace obs
} // namespace naspipe

#endif // NASPIPE_OBS_TRACE_EXPORT_H
