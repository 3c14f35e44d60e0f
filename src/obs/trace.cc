#include "obs/trace.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

#include "common/error.h"

namespace regate {
namespace obs {

namespace {

std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Minimal JSON string escaping (names/categories/arg values). */
void
appendJsonString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

}  // namespace

TraceRecorder &
TraceRecorder::instance()
{
    static TraceRecorder recorder;
    return recorder;
}

void
TraceRecorder::start(const std::string &path)
{
    REGATE_CHECK(!path.empty(), "trace output path is empty");
    {
        std::lock_guard<std::mutex> lock(mu_);
        path_ = path;
        if (originNs_ == 0)
            originNs_ = steadyNowNs();
    }
    enabled_.store(true, std::memory_order_relaxed);
}

std::uint64_t
TraceRecorder::nowUs() const
{
    if (!enabled())
        return 0;
    std::uint64_t origin;
    {
        std::lock_guard<std::mutex> lock(mu_);
        origin = originNs_;
    }
    auto now = steadyNowNs();
    return now > origin ? (now - origin) / 1000 : 0;
}

int
TraceRecorder::threadLaneLocked()
{
    // Small stable per-thread lane ids: lane 0 is the first thread
    // seen (normally main).
    auto id = std::hash<std::thread::id>{}(
        std::this_thread::get_id());
    for (std::size_t i = 0; i < threadLanes_.size(); ++i)
        if (threadLanes_[i] == id)
            return static_cast<int>(i);
    threadLanes_.push_back(id);
    return static_cast<int>(threadLanes_.size() - 1);
}

void
TraceRecorder::push(Event ev)
{
    std::lock_guard<std::mutex> lock(mu_);
    ev.tid = threadLaneLocked();
    events_.push_back(std::move(ev));
}

void
TraceRecorder::complete(const std::string &name,
                        const std::string &cat,
                        std::uint64_t start_us,
                        std::vector<Arg> args)
{
    if (!enabled())
        return;
    auto end = nowUs();
    Event ev;
    ev.name = name;
    ev.cat = cat;
    ev.ts = start_us;
    ev.dur = end > start_us ? end - start_us : 0;
    ev.args = std::move(args);
    push(std::move(ev));
}

void
TraceRecorder::flush()
{
    if (!enabled())
        return;
    std::string path;
    std::vector<Event> events;
    {
        std::lock_guard<std::mutex> lock(mu_);
        path = path_;
        events = events_;  // Retain for later flushes.
    }
    // Sorted by timestamp so the file's event order is monotone —
    // a property tools/trace_check.py pins. stable_sort keeps
    // same-microsecond events in record order.
    std::stable_sort(events.begin(), events.end(),
                     [](const Event &a, const Event &b) {
                         return a.ts < b.ts;
                     });

    std::string out;
    out.reserve(events.size() * 96 + 16);
    out += "[\n";
    auto pid = static_cast<std::uint64_t>(::getpid());
    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto &ev = events[i];
        out += "{\"name\": ";
        appendJsonString(out, ev.name);
        out += ", \"cat\": ";
        appendJsonString(out, ev.cat);
        out += ", \"ph\": \"X\", \"ts\": ";
        out += std::to_string(ev.ts);
        out += ", \"dur\": ";
        out += std::to_string(ev.dur);
        out += ", \"pid\": ";
        out += std::to_string(pid);
        out += ", \"tid\": ";
        out += std::to_string(ev.tid);
        if (!ev.args.empty()) {
            out += ", \"args\": {";
            for (std::size_t j = 0; j < ev.args.size(); ++j) {
                if (j)
                    out += ", ";
                appendJsonString(out, ev.args[j].first);
                out += ": ";
                appendJsonString(out, ev.args[j].second);
            }
            out += "}";
        }
        out += i + 1 < events.size() ? "},\n" : "}\n";
    }
    out += "]\n";

    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    REGATE_CHECK(file.good(), "cannot write trace file ", path);
    file.write(out.data(),
               static_cast<std::streamsize>(out.size()));
    file.flush();
    REGATE_CHECK(file.good(), "short write to trace file ", path);
}

}  // namespace obs
}  // namespace regate
