/**
 * @file
 * Tests for obs::TraceRecorder (src/obs/trace.h): the Chrome-trace
 * output shape, timestamp ordering, and repeated-flush retention.
 *
 * The recorder is a process-wide singleton; this suite is its only
 * user in this process.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/trace.h"

namespace regate {
namespace obs {
namespace {

// ------------------------- TraceRecorder --------------------------

TEST(TraceRecorderTest, RecordsSpansAndFlushesSortedJson)
{
    auto &trace = TraceRecorder::instance();
    std::string path = ::testing::TempDir() + "obs_trace_test.json";
    trace.start(path);
    ASSERT_TRUE(trace.enabled());

    auto t0 = trace.nowUs();
    {
        TraceRecorder::Span span("outer", "test");
        auto inner_start = trace.nowUs();
        EXPECT_GE(inner_start, t0);
        trace.complete("inner", "test", inner_start, {{"k", "v"}});
    }
    trace.complete("after", "test", t0);
    trace.flush();

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto text = buffer.str();

    // Shape: a JSON array with one event object per line, carrying
    // the trace_event keys (full validation is tools/trace_check.py;
    // this pins what the writer emits).
    EXPECT_EQ(text.front(), '[');
    for (const char *needle :
         {"\"name\": \"outer\"", "\"name\": \"inner\"",
          "\"name\": \"after\"", "\"ph\": \"X\"", "\"tid\": 0",
          "\"args\": {\"k\": \"v\"}", "\"dur\": "})
        EXPECT_NE(text.find(needle), std::string::npos)
            << "missing " << needle << " in:\n" << text;

    // flush() writes timestamp-sorted events: the ts values appear
    // in non-decreasing file order.
    std::int64_t last_ts = -1;
    std::size_t at = 0;
    int events = 0;
    while ((at = text.find("\"ts\": ", at)) != std::string::npos) {
        at += 6;
        auto ts = std::stoll(text.substr(at));
        EXPECT_GE(ts, last_ts);
        last_ts = ts;
        ++events;
    }
    EXPECT_EQ(events, 3);

    // Repeated flush retains everything recorded so far.
    trace.flush();
    std::ifstream again(path);
    std::stringstream buffer2;
    buffer2 << again.rdbuf();
    EXPECT_EQ(buffer2.str(), text);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace obs
}  // namespace regate
