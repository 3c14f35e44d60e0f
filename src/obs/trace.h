/**
 * @file
 * obs::TraceRecorder — scoped spans emitted as Chrome/Perfetto
 * `trace_event` JSON, so a simulation run or a sweep renders as one
 * openable timeline (chrome://tracing or https://ui.perfetto.dev).
 *
 * Off by default: recording is gated on one relaxed atomic flag, so
 * binaries run without `--trace-out` pay a single predictable branch
 * per instrumentation point. With `--trace-out FILE`, events buffer in
 * memory — a span is two timestamps and a name, recorded as one
 * complete ("ph":"X") event when its scope closes — and flush() writes
 * the whole array sorted by timestamp, which keeps the output
 * well-formed even though spans complete out of start order.
 *
 * Lanes: an event's tid is a small stable integer per OS thread
 * (allocated on first use).
 *
 * Timestamps are microseconds on std::chrono::steady_clock, origin
 * at recorder start — monotone by construction, which
 * tools/trace_check.py verifies along with span nesting.
 */

#ifndef REGATE_OBS_TRACE_H
#define REGATE_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace regate {
namespace obs {

class TraceRecorder
{
  public:
    /** One "key":"value" pair rendered into an event's args. */
    using Arg = std::pair<std::string, std::string>;

    /** The process-wide recorder. */
    static TraceRecorder &instance();

    /**
     * Enable recording and remember the output path; flush() (or
     * process exit via the caller's atexit hook) writes the file.
     */
    void start(const std::string &path);

    /** Is recording enabled? One relaxed load. */
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Microseconds since recorder start (0 when disabled). */
    std::uint64_t nowUs() const;

    /**
     * Complete span ("ph":"X") on the calling thread's lane, from
     * @p start_us (a prior nowUs()) to now.
     */
    void complete(const std::string &name, const std::string &cat,
                  std::uint64_t start_us, std::vector<Arg> args = {});

    /**
     * Write every buffered event (sorted by timestamp) as a JSON
     * array to the start() path. Safe to call when disabled (no-op)
     * or repeatedly (rewrites the file with all events recorded so
     * far).
     */
    void flush();

    /** RAII span: records one complete event when it goes out of
     *  scope. Cheap when the recorder is disabled. */
    class Span
    {
      public:
        Span(const char *name, const char *cat)
            : name_(name), cat_(cat),
              start_(TraceRecorder::instance().enabled()
                         ? TraceRecorder::instance().nowUs()
                         : kOff)
        {}

        ~Span()
        {
            if (start_ != kOff)
                TraceRecorder::instance().complete(name_, cat_,
                                                   start_);
        }

        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        static constexpr std::uint64_t kOff = ~std::uint64_t{0};
        const char *name_;
        const char *cat_;
        std::uint64_t start_;
    };

  private:
    TraceRecorder() = default;

    struct Event
    {
        std::string name;
        std::string cat;
        std::uint64_t ts = 0;
        std::uint64_t dur = 0;
        int tid = 0;
        std::vector<Arg> args;
    };

    int threadLaneLocked();
    void push(Event ev);

    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    std::string path_;
    std::uint64_t originNs_ = 0;
    std::vector<Event> events_;
    std::vector<std::uint64_t> threadLanes_;
};

}  // namespace obs
}  // namespace regate

#endif  // REGATE_OBS_TRACE_H
