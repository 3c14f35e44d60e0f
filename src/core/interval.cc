#include "core/interval.h"

#include <algorithm>

#include "common/error.h"

namespace regate {
namespace core {

std::vector<Interval>
normalize(std::vector<Interval> intervals)
{
    for (const auto &iv : intervals)
        REGATE_CHECK(iv.end >= iv.start, "interval with end < start: [",
                     iv.start, ", ", iv.end, ")");
    std::erase_if(intervals, [](const Interval &iv) { return iv.empty(); });
    auto by_start = [](const Interval &a, const Interval &b) {
        return a.start < b.start;
    };
    // Traces and generators emit already-ordered intervals; sorting is
    // only needed for adversarial input.
    if (!std::is_sorted(intervals.begin(), intervals.end(), by_start))
        std::sort(intervals.begin(), intervals.end(), by_start);
    std::vector<Interval> out;
    out.reserve(intervals.size());
    for (const auto &iv : intervals) {
        if (!out.empty() && iv.start <= out.back().end)
            out.back().end = std::max(out.back().end, iv.end);
        else
            out.push_back(iv);
    }
    return out;
}

Cycles
coveredLength(const std::vector<Interval> &intervals)
{
    Cycles total = 0;
    for (const auto &iv : intervals)
        total += iv.length();
    return total;
}

std::vector<Interval>
complementWithin(const std::vector<Interval> &intervals, Cycles span)
{
    std::vector<Interval> out;
    out.reserve(intervals.size() + 1);
    Cycles cursor = 0;
    for (const auto &iv : intervals) {
        REGATE_CHECK(iv.end <= span, "interval [", iv.start, ", ", iv.end,
                     ") exceeds span ", span);
        if (iv.start > cursor)
            out.push_back({cursor, iv.start});
        cursor = iv.end;
    }
    if (cursor < span)
        out.push_back({cursor, span});
    return out;
}

}  // namespace core
}  // namespace regate
