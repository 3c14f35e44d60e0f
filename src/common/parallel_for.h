/**
 * @file
 * Fan-out of an index range over threads started for one call, and the
 * worker count a sweep uses (REGATE_THREADS / hardware concurrency).
 *
 * parallelFor runs the worker loop on the calling thread plus helpers
 * it starts and joins itself, so no thread outlives the call. Callers
 * write result i to slot i, which is what makes parallel sweeps
 * deterministic: the worker count changes the wall-clock time, never
 * the results.
 */

#ifndef REGATE_COMMON_PARALLEL_FOR_H
#define REGATE_COMMON_PARALLEL_FOR_H

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace regate {

/**
 * REGATE_THREADS when its whole value is a positive count that fits an
 * unsigned; 0 when it is unset or anything else (a sign, a trailing
 * character, overflow, zero).
 */
inline unsigned
envThreadCount()
{
    if (const char *env = std::getenv("REGATE_THREADS")) {
        const char *end = env + std::strlen(env);
        unsigned n = 0;
        auto [stop, ec] = std::from_chars(env, end, n);
        if (ec == std::errc() && stop == end && n > 0)
            return n;
    }
    return 0;
}

/**
 * envThreadCount() when set, otherwise the hardware concurrency (at
 * least 1).
 */
inline unsigned
defaultThreadCount()
{
    if (unsigned n = envThreadCount())
        return n;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

/**
 * Call @p fn(i) for every i in [0, n) on min(@p workers, n) threads:
 * the calling thread and helpers started for this call, each pulling
 * the next index from a shared counter. With one worker no thread
 * starts and the indices run in order on the calling thread, exactly
 * the serial loop. The call returns once every helper has been
 * joined. If any fn(i) throws, no new index starts and the exception
 * of the lowest failing index is rethrown, the one the serial loop
 * would have thrown. A helper the system refuses to start
 * (std::system_error) means fewer helpers, not a failure.
 */
template <typename Fn>
void
parallelFor(unsigned workers, std::size_t n, Fn &&fn)
{
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex mu;
    std::size_t first_failed = n;
    std::exception_ptr first_error;
    auto worker = [&] {
        while (!failed) {
            std::size_t i = next++;
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu);
                if (i < first_failed) {
                    first_failed = i;
                    first_error = std::current_exception();
                }
                failed = true;
            }
        }
    };
    {
        std::size_t threads = std::min<std::size_t>(workers, n);
        std::vector<std::jthread> helpers;
        helpers.reserve(threads > 1 ? threads - 1 : 0);
        for (std::size_t t = 1; t < threads; ++t) {
            try {
                helpers.emplace_back(worker);
            } catch (const std::system_error &) {
                break;
            }
        }
        worker();
    }  // The helpers join here.
    if (first_error)
        std::rethrow_exception(first_error);
}

}  // namespace regate

#endif  // REGATE_COMMON_PARALLEL_FOR_H
