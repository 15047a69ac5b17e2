/**
 * @file
 * Fork-join over contiguous index ranges.
 *
 * For a batch of independent, read-only jobs (the post-run search):
 * the batch is split into contiguous index ranges, one per thread,
 * and joined before the caller goes on. Ranges depend on (n, threads)
 * alone and every index is written by exactly one range, so the
 * result needs no locks and no atomics and is the same at every
 * thread count.
 */

#ifndef NASPIPE_COMMON_FAN_OUT_H
#define NASPIPE_COMMON_FAN_OUT_H

#include <algorithm>
#include <cstddef>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace naspipe {

/**
 * Run @p fn(lo, hi) over [0, n) split into min(threads, n) contiguous
 * ranges in index order (sizes differ by at most one). The caller
 * runs the first range itself and joins one helper thread per other
 * range; a helper that cannot be spawned has its range run on the
 * caller instead. @p fn must only write state owned by its range.
 * After every helper joined, the exception of the lowest range that
 * threw (a NASPIPE_ASSERT, say) is rethrown on the caller.
 */
template <typename Fn>
void
fanOutRanges(std::size_t n, int threads, const Fn &fn)
{
    std::size_t parts = std::min<std::size_t>(
        n, static_cast<std::size_t>(std::max(threads, 1)));
    if (parts <= 1) {
        if (n > 0)
            fn(std::size_t{0}, n);
        return;
    }
    std::vector<std::exception_ptr> errors(parts);
    auto runPart = [&](std::size_t k) {
        try {
            fn(n * k / parts, n * (k + 1) / parts);
        } catch (...) {
            errors[k] = std::current_exception();
        }
    };
    std::vector<std::thread> helpers;
    helpers.reserve(parts - 1);
    for (std::size_t k = 1; k < parts; k++) {
        try {
            helpers.emplace_back(runPart, k);
        } catch (const std::system_error &) {
            runPart(k);
        }
    }
    runPart(0);
    for (std::thread &helper : helpers)
        helper.join();
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

} // namespace naspipe

#endif // NASPIPE_COMMON_FAN_OUT_H
