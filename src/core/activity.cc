#include "core/activity.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/error.h"

namespace regate {
namespace core {

namespace {

/** Binary search for the group of exactly @p length in a sorted list. */
std::vector<GapGroup>::iterator
findGroup(std::vector<GapGroup> &gaps, Cycles length)
{
    return std::lower_bound(gaps.begin(), gaps.end(), length,
                            [](const GapGroup &g, Cycles len) {
                                return g.length < len;
                            });
}

/** A burst shape's geometry: @c reps bursts of @c len every @c period. */
struct BurstGeometry
{
    Cycles len;
    Cycles period;
    std::uint64_t reps;
};

/** Geometry of a shape with 0 < @p active < @p span. */
BurstGeometry
burstGeometry(Cycles span, Cycles active, std::uint64_t bursts)
{
    bursts = std::clamp<std::uint64_t>(bursts, 1, active);
    Cycles len = std::max<Cycles>(1, active / bursts);
    Cycles period = std::max<Cycles>(len + 1, span / bursts);
    return {len, period, (span - len) / period + 1};
}

}  // namespace

ActivityTimeline
ActivityTimeline::fromBursts(Cycles span, Cycles active,
                             std::uint64_t bursts)
{
    if (span == 0)
        return ActivityTimeline();
    if (active == 0)
        return allIdle(span);
    if (active >= span)
        return allActive(span);
    auto g = burstGeometry(span, active, bursts);
    return periodic(span, 0, g.len, g.period);
}

std::uint64_t
ActivityTimeline::burstActivations(Cycles span, Cycles active,
                                   std::uint64_t bursts)
{
    if (span == 0 || active == 0)
        return 0;
    return active >= span ? 1 : burstGeometry(span, active, bursts).reps;
}

ActivityTimeline
ActivityTimeline::allActive(Cycles span)
{
    ActivityTimeline t;
    t.span_ = span;
    t.active_ = span;
    t.activations_ = span > 0 ? 1 : 0;
    return t;
}

ActivityTimeline
ActivityTimeline::allIdle(Cycles span)
{
    ActivityTimeline t;
    t.span_ = span;
    if (span > 0) {
        t.gaps_.push_back({span, 1});
        t.leadingIdle_ = span;
        t.trailingIdle_ = span;
    }
    return t;
}

ActivityTimeline
ActivityTimeline::periodic(Cycles span, Cycles offset, Cycles active_len,
                           Cycles period)
{
    REGATE_CHECK(period > 0, "periodic: period must be positive");
    REGATE_CHECK(active_len > 0, "periodic: active_len must be positive");
    REGATE_CHECK(active_len <= period,
                 "periodic: active_len ", active_len, " > period ", period);

    if (span < offset + active_len)
        return allIdle(span);

    std::uint64_t reps = (span - offset - active_len) / period + 1;

    ActivityTimeline t;
    t.span_ = span;
    t.active_ = active_len * reps;
    t.activations_ = reps;
    t.leadingIdle_ = offset;
    Cycles last_end = offset + (reps - 1) * period + active_len;
    t.trailingIdle_ = span - last_end;

    Cycles inner_gap = period - active_len;
    if (inner_gap > 0 && reps > 1)
        t.insertGap(inner_gap, reps - 1);
    if (t.leadingIdle_ > 0)
        t.insertGap(t.leadingIdle_, 1);
    if (t.trailingIdle_ > 0)
        t.insertGap(t.trailingIdle_, 1);
    return t;
}

ActivityTimeline
ActivityTimeline::fromIntervals(Cycles span, std::vector<Interval> active)
{
    auto norm = normalize(std::move(active));
    ActivityTimeline t;
    t.span_ = span;
    t.active_ = coveredLength(norm);
    t.activations_ = norm.size();

    std::map<Cycles, std::uint64_t> groups;
    auto idle = complementWithin(norm, span);
    for (const auto &gap : idle)
        groups[gap.length()]++;
    t.gaps_.reserve(groups.size());
    for (const auto &[len, cnt] : groups)
        t.gaps_.push_back({len, cnt});

    if (!idle.empty() && idle.front().start == 0)
        t.leadingIdle_ = idle.front().length();
    if (!idle.empty() && idle.back().end == span)
        t.trailingIdle_ = idle.back().length();
    return t;
}

void
ActivityTimeline::insertGap(Cycles length, std::uint64_t count)
{
    if (length == 0 || count == 0)
        return;
    auto it = findGroup(gaps_, length);
    if (it != gaps_.end() && it->length == length)
        it->count += count;
    else
        gaps_.insert(it, {length, count});
}

void
ActivityTimeline::removeGaps(Cycles length, std::uint64_t count)
{
    if (length == 0 || count == 0)
        return;
    auto it = findGroup(gaps_, length);
    if (it == gaps_.end() || it->length != length || it->count < count)
        throw LogicError("removeGaps: fewer than requested gaps of "
                         "requested length");
    it->count -= count;
    if (it->count == 0)
        gaps_.erase(it);
}

void
ActivityTimeline::mergeGaps(const std::vector<GapGroup> &other,
                            Cycles skip_length)
{
    if (other.empty()) {
        REGATE_ASSERT(skip_length == 0,
                      "mergeGaps: seam gap missing from other timeline");
        return;
    }

    std::vector<GapGroup> merged;
    merged.reserve(gaps_.size() + other.size());
    auto push = [&merged](Cycles length, std::uint64_t count) {
        if (count == 0)
            return;
        if (!merged.empty() && merged.back().length == length)
            merged.back().count += count;
        else
            merged.push_back({length, count});
    };

    bool skipped = skip_length == 0;
    std::size_t i = 0, j = 0;
    while (i < gaps_.size() || j < other.size()) {
        bool take_mine = j >= other.size() ||
                         (i < gaps_.size() &&
                          gaps_[i].length <= other[j].length);
        if (take_mine) {
            push(gaps_[i].length, gaps_[i].count);
            ++i;
        } else {
            std::uint64_t count = other[j].count;
            if (!skipped && other[j].length == skip_length) {
                --count;
                skipped = true;
            }
            push(other[j].length, count);
            ++j;
        }
    }
    REGATE_ASSERT(skipped,
                  "mergeGaps: seam gap missing from other timeline");
    gaps_ = std::move(merged);
}

void
ActivityTimeline::append(const ActivityTimeline &next)
{
    if (next.span_ == 0)
        return;
    if (span_ == 0) {
        *this = next;
        return;
    }
    if (&next == this) {
        ActivityTimeline copy = next;
        append(copy);
        return;
    }

    bool a_ends_active = active_ > 0 && trailingIdle_ == 0;
    bool b_starts_active = next.active_ > 0 && next.leadingIdle_ == 0;
    bool a_all_idle = active_ == 0;
    bool b_all_idle = next.active_ == 0;

    Cycles seam = trailingIdle_ + next.leadingIdle_;

    removeGaps(trailingIdle_, 1);
    mergeGaps(next.gaps_, next.leadingIdle_);
    insertGap(seam, 1);

    activations_ += next.activations_;
    if (seam == 0 && a_ends_active && b_starts_active)
        activations_ -= 1;

    span_ += next.span_;
    active_ += next.active_;
    leadingIdle_ = a_all_idle ? seam : leadingIdle_;
    trailingIdle_ = b_all_idle ? seam : next.trailingIdle_;
}

void
ActivityTimeline::append(ActivityTimeline &&next)
{
    if (span_ != 0 || next.span_ == 0) {
        append(static_cast<const ActivityTimeline &>(next));
        return;
    }
    *this = std::move(next);
    gaps_.shrink_to_fit();
}

void
ActivityTimeline::appendBursts(Cycles span, Cycles active,
                               std::uint64_t bursts)
{
    if (span == 0)
        return;
    bool was_idle = active_ == 0;
    span_ += span;

    if (active == 0) {
        // All idle: the shape lengthens this timeline's trailing gap.
        Cycles seam = trailingIdle_ + span;
        removeGaps(trailingIdle_, 1);
        insertGap(seam, 1);
        if (was_idle)
            leadingIdle_ = seam;
        trailingIdle_ = seam;
        return;
    }

    // The shape starts active, so the seam gap is this timeline's
    // trailing gap as it stands; only the shape's own gaps are added.
    // All active is one burst spanning the whole shape.
    auto g = active >= span ? BurstGeometry{span, span, 1}
                            : burstGeometry(span, active, bursts);
    Cycles trailing = span - ((g.reps - 1) * g.period + g.len);
    if (g.reps > 1)
        insertGap(g.period - g.len, g.reps - 1);
    insertGap(trailing, 1);

    // The first burst fuses with an activation running up to the seam.
    // An all-idle prefix keeps its leading gap: it equals the seam.
    activations_ += g.reps - (!was_idle && trailingIdle_ == 0 ? 1 : 0);
    active_ += g.len * g.reps;
    trailingIdle_ = trailing;
}

ActivityTimeline
ActivityTimeline::repeated(std::uint64_t times) const
{
    ActivityTimeline t = *this;
    t.repeat(times);
    return t;
}

void
ActivityTimeline::repeat(std::uint64_t times)
{
    if (times == 0) {
        *this = ActivityTimeline();
        return;
    }
    if (times == 1 || span_ == 0)
        return;

    span_ *= times;
    if (active_ == 0) {
        // All idle: the one gap is the whole span.
        gaps_.front() = {span_, 1};
        leadingIdle_ = trailingIdle_ = span_;
        return;
    }

    active_ *= times;
    for (auto &g : gaps_)
        g.count *= times;

    // Each of the times-1 seams fuses one trailing and one leading gap
    // into a single seam gap; the whole adjustment is three O(log G)
    // multiset updates instead of a loop over the repeat count.
    Cycles seam = trailingIdle_ + leadingIdle_;
    std::uint64_t seams = times - 1;
    removeGaps(trailingIdle_, seams);
    removeGaps(leadingIdle_, seams);
    insertGap(seam, seams);

    activations_ = activations_ * times - (seam == 0 ? seams : 0);
    checkInvariants();
}

bool
ActivityTimeline::operator==(const ActivityTimeline &o) const
{
    return span_ == o.span_ && active_ == o.active_ &&
           activations_ == o.activations_ && gaps_ == o.gaps_ &&
           leadingIdle_ == o.leadingIdle_ &&
           trailingIdle_ == o.trailingIdle_;
}

void
ActivityTimeline::checkInvariants() const
{
    Cycles gap_total = 0;
    Cycles prev_len = 0;
    for (const auto &g : gaps_) {
        REGATE_ASSERT(g.length > 0 && g.count > 0,
                      "timeline has degenerate gap group");
        REGATE_ASSERT(g.length > prev_len,
                      "timeline gap groups unsorted or duplicated");
        prev_len = g.length;
        gap_total += g.length * g.count;
    }
    REGATE_ASSERT(active_ + gap_total == span_,
                  "timeline accounting broken: active ", active_,
                  " + gaps ", gap_total, " != span ", span_);
    REGATE_ASSERT((active_ == 0) == (activations_ == 0),
                  "activations inconsistent with active cycles");
}

}  // namespace core
}  // namespace regate
