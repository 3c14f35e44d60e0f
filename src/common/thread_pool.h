/**
 * @file
 * A minimal fixed-size worker pool for fan-out over sweep grids.
 *
 * Tasks are arbitrary callables submitted through submit(), which
 * returns a std::future for the callable's result. Work is executed
 * FIFO; result *ordering* is the caller's job. parallelFor and
 * parallelMapOrdered below fan an index range out with one task per
 * worker and keep results in input order, which is what makes parallel
 * sweeps deterministic. Exceptions thrown by a task are captured in
 * its future and rethrown at get().
 */

#ifndef REGATE_COMMON_THREAD_POOL_H
#define REGATE_COMMON_THREAD_POOL_H

#include <algorithm>
#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace regate {

class ThreadPool
{
  public:
    /**
     * @param threads  Worker count; 0 picks the REGATE_THREADS
     *                 environment variable if set, otherwise the
     *                 hardware concurrency (min 1).
     */
    explicit ThreadPool(unsigned threads = 0)
    {
        if (threads == 0)
            threads = defaultThreadCount();
        workers_.reserve(threads);
        for (unsigned i = 0; i < threads; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        for (auto &w : workers_)
            w.join();
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p fn; the returned future yields its result. */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> fut = task->get_future();
        {
            std::lock_guard<std::mutex> lock(mu_);
            queue_.emplace_back([task] { (*task)(); });
        }
        cv_.notify_one();
        return fut;
    }

    unsigned
    threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Worker count an argument of 0 resolves to: REGATE_THREADS when
     * its whole value is a positive count that fits an unsigned,
     * otherwise (a sign, a trailing character, overflow, zero) the
     * hardware concurrency.
     */
    static unsigned
    defaultThreadCount()
    {
        if (const char *env = std::getenv("REGATE_THREADS")) {
            const char *end = env + std::strlen(env);
            unsigned n = 0;
            auto [stop, ec] = std::from_chars(env, end, n);
            if (ec == std::errc() && stop == end && n > 0)
                return n;
        }
        unsigned hw = std::thread::hardware_concurrency();
        return hw > 0 ? hw : 1;
    }

  private:
    void
    workerLoop()
    {
        for (;;) {
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lock(mu_);
                cv_.wait(lock,
                         [this] { return stop_ || !queue_.empty(); });
                if (stop_ && queue_.empty())
                    return;
                task = std::move(queue_.front());
                queue_.pop_front();
            }
            task();
        }
    }

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
};

/**
 * Call @p fn(i) for every i in [0, n) on @p pool: one task per worker
 * (at most n), each pulling the next index from a shared counter. The
 * call returns once every worker has stopped. If any fn(i) throws, the
 * workers take no new indices and the exception of the lowest failing
 * index is rethrown, the one the serial loop would have thrown.
 *
 * Do not call this from a task already running on @p pool: the outer
 * task would wait on workers it occupies itself. The sweeps fan out
 * once, one task per group of cases, and never nest.
 */
template <typename Fn>
void
parallelFor(ThreadPool &pool, std::size_t n, Fn &&fn)
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
    std::vector<std::future<void>> workers;
    std::size_t tasks = std::min<std::size_t>(pool.threadCount(), n);
    workers.reserve(tasks);
    for (std::size_t t = 0; t < tasks; ++t)
        workers.push_back(pool.submit(worker));
    for (auto &w : workers)
        w.wait();
    if (first_error)
        std::rethrow_exception(first_error);
}

/**
 * Apply @p fn to every item on @p pool (see parallelFor) and return the
 * results in input order, whatever the worker count or scheduling.
 */
template <typename T, typename Fn>
auto
parallelMapOrdered(ThreadPool &pool, const std::vector<T> &items, Fn fn)
    -> std::vector<decltype(fn(items.front()))>
{
    using R = decltype(fn(items.front()));
    std::vector<std::optional<R>> slots(items.size());
    parallelFor(pool, items.size(),
                [&](std::size_t i) { slots[i].emplace(fn(items[i])); });
    std::vector<R> out;
    out.reserve(items.size());
    for (auto &slot : slots)
        out.push_back(std::move(*slot));
    return out;
}

}  // namespace regate

#endif  // REGATE_COMMON_THREAD_POOL_H
