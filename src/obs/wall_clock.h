/**
 * @file
 * The sanctioned wall-clock sink of the observability layer.
 *
 * Wall-clock time is the canonical nondeterminism source: any value
 * derived from it differs between two otherwise identical runs, so a
 * clock read that leaks into a schedule or commit decision silently
 * breaks NASPipe's reproducibility guarantee. This repo therefore
 * confines every wall-clock read to src/obs/ (this file) and bench/;
 * the `wall-clock` rule of tools/naspipe_lint enforces the
 * confinement. The stage workers and the serve coordinator measure
 * time only through these wrappers, which keeps the dependency
 * auditable: wall time may flow *out* into reports and traces, never
 * *in* to decisions (the opt-in hang deadline can only fail a run).
 */

#ifndef NASPIPE_OBS_WALL_CLOCK_H
#define NASPIPE_OBS_WALL_CLOCK_H

#include <chrono>

namespace naspipe {
namespace obs {

/** Monotonic wall-clock instant (never compared across processes). */
using TimePoint = std::chrono::steady_clock::time_point;

/** Current monotonic instant. */
TimePoint now();

/** Seconds elapsed from @p a to @p b. */
double secondsBetween(TimePoint a, TimePoint b);

/** Seconds elapsed since @p a. */
double secondsSince(TimePoint a);

} // namespace obs
} // namespace naspipe

#endif // NASPIPE_OBS_WALL_CLOCK_H
