/**
 * @file
 * Tests for the compressed activity timelines: construction, gap
 * multisets, concatenation with seam merging (copy and move), and
 * repetition (copy and in place).
 */

#include <gtest/gtest.h>

#include <utility>

#include "common/error.h"
#include "common/prng.h"
#include "core/activity.h"

namespace regate {
namespace core {
namespace {

Cycles
gapTotal(const ActivityTimeline &t)
{
    Cycles total = 0;
    for (const auto &g : t.gaps())
        total += g.length * g.count;
    return total;
}

TEST(Activity, AllActive)
{
    auto t = ActivityTimeline::allActive(100);
    EXPECT_EQ(t.span(), 100u);
    EXPECT_EQ(t.activeCycles(), 100u);
    EXPECT_EQ(t.idleCycles(), 0u);
    EXPECT_EQ(t.activations(), 1u);
    EXPECT_TRUE(t.gaps().empty());
    EXPECT_DOUBLE_EQ(t.utilization(), 1.0);
    t.checkInvariants();
}

TEST(Activity, AllIdle)
{
    auto t = ActivityTimeline::allIdle(50);
    EXPECT_EQ(t.activeCycles(), 0u);
    EXPECT_EQ(t.activations(), 0u);
    ASSERT_EQ(t.gaps().size(), 1u);
    EXPECT_EQ(t.gaps()[0].length, 50u);
    EXPECT_DOUBLE_EQ(t.utilization(), 0.0);
    t.checkInvariants();
}

TEST(Activity, PeriodicFig15Pattern)
{
    // The Fig. 15 VU pattern: 2 active cycles of every 16.
    auto t = ActivityTimeline::periodic(160, 0, 2, 16);
    EXPECT_EQ(t.activations(), 10u);
    EXPECT_EQ(t.activeCycles(), 20u);
    EXPECT_EQ(gapTotal(t), 140u);
    // 9 inner gaps of 14 plus a trailing gap of 14.
    ASSERT_EQ(t.gaps().size(), 1u);
    EXPECT_EQ(t.gaps()[0].length, 14u);
    EXPECT_EQ(t.gaps()[0].count, 10u);
    t.checkInvariants();
}

TEST(Activity, PeriodicWithOffset)
{
    auto t = ActivityTimeline::periodic(100, 10, 5, 20);
    // Bursts at 10, 30, 50, 70, 90 (last ends at 95).
    EXPECT_EQ(t.activations(), 5u);
    EXPECT_EQ(t.activeCycles(), 25u);
    EXPECT_EQ(t.span(), 100u);
    t.checkInvariants();
}

TEST(Activity, PeriodicDegenerateCases)
{
    EXPECT_THROW(ActivityTimeline::periodic(10, 0, 0, 4), ConfigError);
    EXPECT_THROW(ActivityTimeline::periodic(10, 0, 5, 4), ConfigError);
    // Burst does not fit: all idle.
    auto t = ActivityTimeline::periodic(3, 2, 4, 8);
    EXPECT_EQ(t.activeCycles(), 0u);
}

TEST(Activity, FromIntervals)
{
    auto t = ActivityTimeline::fromIntervals(20, {{2, 5}, {10, 12}});
    EXPECT_EQ(t.activeCycles(), 5u);
    EXPECT_EQ(t.activations(), 2u);
    // Gaps: [0,2), [5,10), [12,20) -> lengths 2, 5, 8.
    EXPECT_EQ(t.gaps().size(), 3u);
    EXPECT_EQ(gapTotal(t), 15u);
    t.checkInvariants();
}

TEST(Activity, AppendMergesSeamGaps)
{
    // A ends with 5 idle; B starts with 3 idle -> one 8-cycle gap.
    auto a = ActivityTimeline::fromIntervals(10, {{0, 5}});
    auto b = ActivityTimeline::fromIntervals(10, {{3, 10}});
    a.append(b);
    EXPECT_EQ(a.span(), 20u);
    EXPECT_EQ(a.activeCycles(), 12u);
    EXPECT_EQ(a.activations(), 2u);
    ASSERT_EQ(a.gaps().size(), 1u);
    EXPECT_EQ(a.gaps()[0].length, 8u);
    a.checkInvariants();
}

TEST(Activity, AppendMergesAbuttingActive)
{
    auto a = ActivityTimeline::allActive(10);
    auto b = ActivityTimeline::allActive(5);
    a.append(b);
    EXPECT_EQ(a.span(), 15u);
    EXPECT_EQ(a.activations(), 1u);  // One contiguous burst.
    a.checkInvariants();
}

TEST(Activity, AppendAllIdleRuns)
{
    auto a = ActivityTimeline::allIdle(10);
    a.append(ActivityTimeline::allIdle(20));
    EXPECT_EQ(a.span(), 30u);
    ASSERT_EQ(a.gaps().size(), 1u);
    EXPECT_EQ(a.gaps()[0].length, 30u);
    a.checkInvariants();
}

TEST(Activity, AppendIdleThenActive)
{
    auto a = ActivityTimeline::allIdle(10);
    a.append(ActivityTimeline::allActive(10));
    EXPECT_EQ(a.span(), 20u);
    EXPECT_EQ(a.activeCycles(), 10u);
    EXPECT_EQ(a.activations(), 1u);
    ASSERT_EQ(a.gaps().size(), 1u);
    EXPECT_EQ(a.gaps()[0].length, 10u);
    a.checkInvariants();
}

TEST(Activity, RepeatedMatchesManualAppend)
{
    auto unit = ActivityTimeline::fromIntervals(16, {{5, 7}});
    auto manual = unit;
    for (int i = 0; i < 4; ++i)
        manual.append(unit);
    auto fast = unit.repeated(5);

    EXPECT_EQ(fast.span(), manual.span());
    EXPECT_EQ(fast.activeCycles(), manual.activeCycles());
    EXPECT_EQ(fast.activations(), manual.activations());
    EXPECT_EQ(gapTotal(fast), gapTotal(manual));
    fast.checkInvariants();
}

TEST(Activity, RepeatedAllActiveMergesBursts)
{
    auto t = ActivityTimeline::allActive(8).repeated(100);
    EXPECT_EQ(t.span(), 800u);
    EXPECT_EQ(t.activations(), 1u);
    t.checkInvariants();
}

TEST(Activity, RepeatedZeroAndOne)
{
    auto t = ActivityTimeline::allActive(8);
    EXPECT_EQ(t.repeated(0).span(), 0u);
    EXPECT_EQ(t.repeated(1).span(), 8u);
}

TEST(Activity, RepeatedPropertyRandomized)
{
    Prng rng(99);
    for (int iter = 0; iter < 30; ++iter) {
        Cycles span = 10 + rng.uniform(0, 40);
        std::vector<Interval> ivs;
        Cycles cursor = rng.uniform(0, 3);
        while (cursor + 2 < span) {
            Cycles len = 1 + rng.uniform(0, 4);
            Cycles end = std::min(span, cursor + len);
            ivs.push_back({cursor, end});
            cursor = end + 1 + rng.uniform(0, 5);
        }
        auto unit = ActivityTimeline::fromIntervals(span, ivs);
        std::uint64_t reps = 2 + rng.uniform(0, 6);

        auto manual = unit;
        for (std::uint64_t i = 1; i < reps; ++i)
            manual.append(unit);
        auto fast = unit.repeated(reps);

        EXPECT_EQ(fast.span(), manual.span());
        EXPECT_EQ(fast.activeCycles(), manual.activeCycles());
        EXPECT_EQ(fast.activations(), manual.activations());
        EXPECT_EQ(gapTotal(fast), gapTotal(manual));
        fast.checkInvariants();
        manual.checkInvariants();
    }
}

TEST(Activity, RepeatInPlaceEqualsRepeated)
{
    const ActivityTimeline shapes[] = {
        ActivityTimeline(),
        ActivityTimeline::allIdle(9),
        ActivityTimeline::allActive(8),
        ActivityTimeline::fromIntervals(16, {{5, 7}}),
        ActivityTimeline::fromIntervals(20, {{0, 3}, {9, 12}}),
    };
    for (const auto &unit : shapes) {
        for (std::uint64_t times : {0, 1, 2, 7}) {
            auto t = unit;
            t.repeat(times);
            EXPECT_TRUE(t == unit.repeated(times))
                << "span " << unit.span() << " x" << times;
        }
    }
}

TEST(Activity, MoveAppendEqualsCopyAppend)
{
    const auto a = ActivityTimeline::fromIntervals(16, {{5, 7}});
    const auto b = ActivityTimeline::fromIntervals(12, {{0, 2}, {8, 9}});
    for (const auto &head : {ActivityTimeline(), a}) {
        auto copied = head;
        copied.append(b);
        auto moved = head;
        auto tail = b;
        moved.append(std::move(tail));
        EXPECT_TRUE(moved == copied);
        moved.checkInvariants();
    }
}

}  // namespace
}  // namespace core
}  // namespace regate
