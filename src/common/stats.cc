#include "common/stats.h"

#include <algorithm>

#include "common/logging.h"

namespace naspipe {

void
UtilizationTracker::addBusy(double start, double end)
{
    NASPIPE_ASSERT(end >= start, "busy interval must not be negative");
    _busy += end - start;
    _first = std::min(_first, start);
    _last = std::max(_last, end);
    _intervals++;
}

double
UtilizationTracker::firstStart() const
{
    return _intervals ? _first : 0.0;
}

double
UtilizationTracker::lastEnd() const
{
    return _intervals ? _last : 0.0;
}

double
UtilizationTracker::utilization(double windowEnd) const
{
    if (windowEnd <= 0.0)
        return 0.0;
    return std::min(1.0, _busy / windowEnd);
}

double
UtilizationTracker::bubbleRatio() const
{
    if (!_intervals)
        return 0.0;
    const double window = _last - _first;
    if (window <= 0.0)
        return 0.0;
    return std::max(0.0, 1.0 - _busy / window);
}

void
UtilizationTracker::reset()
{
    *this = UtilizationTracker();
}

double
RatioStat::rate() const
{
    const std::uint64_t t = total();
    return t ? static_cast<double>(_hits) / static_cast<double>(t) : 0.0;
}

void
RatioStat::reset()
{
    _hits = 0;
    _misses = 0;
}

} // namespace naspipe
