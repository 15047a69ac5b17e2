/**
 * @file
 * Unified metrics registry: one deterministic export surface for
 * everything a run can report.
 *
 * The registry holds named counters, gauges, text values and
 * fixed-bucket histograms. Names are hierarchical slash paths
 * ("stage/0/busy_s") and the export walks them in lexicographic
 * order, so two registries populated with the same values serialize
 * to the same bytes — the property the tests/obs determinism suite
 * asserts.
 *
 * Every entry carries a stability tag:
 *
 *   - Stable  — a pure function of (seed, schedule): structural
 *     counters, final losses/hashes, logical-schedule analysis,
 *     profiled layer costs. Exported in both modes.
 *   - Timing  — derived from wall-clock reads (src/obs/ is the only
 *     sanctioned source): busy/wait seconds, latency histograms.
 *     Exported only in wall mode, so the default logical-mode
 *     metrics JSON is byte-identical across identical-seed runs.
 */

#ifndef NASPIPE_OBS_METRICS_REGISTRY_H
#define NASPIPE_OBS_METRICS_REGISTRY_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.h"

namespace naspipe {
namespace obs {

/** Whether a metric survives the logical-mode determinism filter. */
enum class Stability {
    Stable,  ///< pure function of (seed, schedule)
    Timing,  ///< wall-clock derived; wall mode only
};

/**
 * Ordered, typed collection of named metrics.
 */
class MetricsRegistry
{
  public:
    /** Set an integer counter. */
    void counter(const std::string &name, std::uint64_t value,
                 Stability stability = Stability::Stable);

    /** Set a real-valued gauge, formatted with @p digits decimals. */
    void gauge(const std::string &name, double value, int digits = 6,
               Stability stability = Stability::Stable);

    /** Set a text value (JSON-escaped on export). */
    void text(const std::string &name, const std::string &value,
              Stability stability = Stability::Stable);

    /** Set a histogram. */
    void histogram(const std::string &name, FixedHistogram hist,
                   int boundDigits = 6,
                   Stability stability = Stability::Timing);

    /** Number of entries (metrics + histograms). */
    std::size_t size() const
    {
        return _metrics.size() + _histograms.size();
    }

    /**
     * Serialize as one JSON object:
     *
     *   {"schema":"naspipe-metrics/1", <headers...>,
     *    "metrics":{...}, "histograms":{...}}
     *
     * @p headers are emitted first, in the given order, as string
     * values. @p stableOnly drops every Timing entry (logical mode).
     */
    std::string exportJson(
        const std::vector<std::pair<std::string, std::string>> &headers,
        bool stableOnly) const;

    /** Schema identifier emitted in every export. */
    static const char *schemaName() { return "naspipe-metrics/1"; }

  private:
    struct Scalar {
        std::string rendered;  ///< JSON value text, pre-formatted
        Stability stability = Stability::Stable;
    };
    struct HistEntry {
        FixedHistogram hist;
        int boundDigits = 6;
        Stability stability = Stability::Timing;
    };

    std::map<std::string, Scalar> _metrics;
    std::map<std::string, HistEntry> _histograms;
};

/** Escape a string for embedding in a JSON document. */
std::string jsonEscape(const std::string &text);

} // namespace obs
} // namespace naspipe

#endif // NASPIPE_OBS_METRICS_REGISTRY_H
