/**
 * @file
 * Shared configuration for the benchmark harnesses.
 *
 * Every binary in bench/ regenerates one table or figure of the
 * paper's evaluation (§5). They share the evaluation defaults here so
 * numbers are comparable across binaries; NASPIPE_BENCH_STEPS can
 * override the per-run step count for quicker smoke runs.
 */

#ifndef NASPIPE_BENCH_BENCH_UTIL_H
#define NASPIPE_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/string_util.h"
#include "core/ablation.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/report.h"

namespace naspipe {
namespace bench {

/**
 * The positive whole number in environment variable @p name, or
 * @p fallback when it is unset. A malformed, non-positive or
 * out-of-range value prints a message and exits 2.
 */
inline int
positiveEnv(const char *name, int fallback)
{
    const char *env = std::getenv(name);
    if (!env)
        return fallback;
    int value = 0;
    if (!parseWholeNumber(env, value) || value < 1) {
        std::fprintf(stderr,
                     "%s: expected a positive whole number, got '%s'\n",
                     name, env);
        std::exit(2);
    }
    return value;
}

/** Steps per measured run (override with NASPIPE_BENCH_STEPS). */
inline int
defaultSteps(int fallback = 96)
{
    return positiveEnv("NASPIPE_BENCH_STEPS", fallback);
}

/** The paper's evaluation defaults (8 GPUs unless a figure varies). */
inline EvaluationDefaults
paperDefaults()
{
    EvaluationDefaults d;
    d.gpus = 8;
    d.steps = defaultSteps();
    d.seed = 7;
    return d;
}

/** Print a section header. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n\n", title.c_str());
}

} // namespace bench
} // namespace naspipe

#endif // NASPIPE_BENCH_BENCH_UTIL_H
