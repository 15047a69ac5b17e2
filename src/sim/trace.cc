#include "sim/trace.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"

namespace naspipe {

const char *
traceKindName(TraceKind kind)
{
    switch (kind) {
      case TraceKind::Forward:
        return "fwd";
      case TraceKind::Backward:
        return "bwd";
      case TraceKind::Prefetch:
        return "prefetch";
      case TraceKind::Evict:
        return "evict";
      case TraceKind::MirrorSync:
        return "mirror";
      case TraceKind::Stall:
        return "stall";
      case TraceKind::Flush:
        return "flush";
      case TraceKind::Fault:
        return "fault";
      case TraceKind::Checkpoint:
        return "ckpt";
      case TraceKind::Recovery:
        return "recovery";
    }
    return "?";
}

void
Trace::add(const TraceRecord &record)
{
    if (!_enabled)
        return;
    NASPIPE_ASSERT(record.end >= record.start,
                   "trace record with negative duration");
    _records.push_back(record);
}

std::vector<TraceRecord>
Trace::byKind(TraceKind kind) const
{
    std::vector<TraceRecord> out;
    for (const auto &r : _records) {
        if (r.kind == kind)
            out.push_back(r);
    }
    return out;
}

std::vector<TraceRecord>
Trace::byStage(int stage) const
{
    std::vector<TraceRecord> out;
    for (const auto &r : _records) {
        if (r.stage == stage)
            out.push_back(r);
    }
    return out;
}

std::vector<TraceRecord>
Trace::taskTimeline() const
{
    std::vector<TraceRecord> out;
    for (const auto &r : _records) {
        if (r.kind == TraceKind::Forward || r.kind == TraceKind::Backward)
            out.push_back(r);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceRecord &a, const TraceRecord &b) {
                         return a.start < b.start;
                     });
    return out;
}

std::string
Trace::renderTimeline(int numStages, int columns) const
{
    auto tasks = taskTimeline();
    if (tasks.empty())
        return "(empty timeline)\n";

    Tick horizon = 0;
    for (const auto &r : tasks)
        horizon = std::max(horizon, r.end);
    if (horizon == 0)
        horizon = 1;

    auto toCol = [&](Tick t) {
        return static_cast<int>(static_cast<double>(t) /
                                static_cast<double>(horizon) *
                                (columns - 1));
    };

    std::ostringstream oss;
    for (int stage = 0; stage < numStages; stage++) {
        std::string row(columns, '.');
        for (const auto &r : tasks) {
            if (r.stage != stage)
                continue;
            int c0 = toCol(r.start);
            int c1 = std::max(c0, toCol(r.end) - 1);
            // Label the slot with the subnet's sequence digit; upper
            // case for backward passes so dependencies stand out.
            char label = '#';
            if (r.subnet >= 0) {
                char digit =
                    static_cast<char>('0' + (r.subnet % 10));
                label = (r.kind == TraceKind::Backward)
                            ? static_cast<char>(
                                  'A' + (r.subnet % 10))
                            : digit;
            }
            for (int c = c0; c <= c1 && c < columns; c++)
                row[c] = label;
        }
        oss << "stage " << stage << " |" << row << "|\n";
    }
    oss << "(digits: forward subnet id; letters A=0..J=9: backward; "
           ".: idle; horizon "
        << formatFixed(ticksToSec(horizon), 3) << "s)\n";
    return oss.str();
}

} // namespace naspipe
