/**
 * @file
 * Property tests for the timeline gap algebra overhaul: the O(log G)
 * seam arithmetic in repeated() must match n-fold append(), the
 * ordered-merge append() must match a naive re-sort reference, the
 * in-place appendBursts() must match append() of the burst shape, and
 * the sorted-gap-multiset invariant must hold after every operation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/prng.h"
#include "core/activity.h"

namespace regate {
namespace core {
namespace {

/** Random timeline with irregular bursts (may be all idle/active). */
ActivityTimeline
randomTimeline(Prng &rng)
{
    Cycles span = 8 + rng.uniform(0, 120);
    int shape = static_cast<int>(rng.uniform(0, 9));
    if (shape == 0)
        return ActivityTimeline::allIdle(span);
    if (shape == 1)
        return ActivityTimeline::allActive(span);
    std::vector<Interval> ivs;
    Cycles cursor = rng.uniform(0, 6);
    while (cursor + 2 < span) {
        Cycles len = 1 + rng.uniform(0, 7);
        Cycles end = std::min(span, cursor + len);
        ivs.push_back({cursor, end});
        cursor = end + rng.uniform(0, 9);
    }
    return ActivityTimeline::fromIntervals(span, ivs);
}

/** The naive append reference: collect all gaps, re-sort, re-group. */
std::vector<GapGroup>
naiveAppendGaps(const ActivityTimeline &a, const ActivityTimeline &b)
{
    // Expand both multisets minus the seam-side gaps, add the fused
    // seam gap, then rebuild groups from a sorted map — the behaviour
    // the seed's addGap + full re-sort produced.
    std::map<Cycles, std::uint64_t> groups;
    for (const auto &g : a.gaps())
        groups[g.length] += g.count;
    for (const auto &g : b.gaps())
        groups[g.length] += g.count;
    auto drop = [&groups](Cycles len) {
        if (len == 0)
            return;
        auto it = groups.find(len);
        ASSERT_NE(it, groups.end());
        if (--it->second == 0)
            groups.erase(it);
    };
    drop(a.trailingIdle());
    drop(b.leadingIdle());
    Cycles seam = a.trailingIdle() + b.leadingIdle();
    if (seam > 0)
        groups[seam] += 1;
    std::vector<GapGroup> out;
    for (const auto &[len, cnt] : groups)
        out.push_back({len, cnt});
    return out;
}

TEST(ActivityProperty, AppendMatchesNaiveResort)
{
    Prng rng(4242);
    for (int iter = 0; iter < 200; ++iter) {
        auto a = randomTimeline(rng);
        auto b = randomTimeline(rng);
        if (a.span() == 0 || b.span() == 0)
            continue;

        auto expect = naiveAppendGaps(a, b);

        auto merged = a;
        merged.append(b);
        merged.checkInvariants();
        EXPECT_EQ(merged.gaps(), expect) << "iteration " << iter;
        EXPECT_EQ(merged.span(), a.span() + b.span());
        EXPECT_EQ(merged.activeCycles(),
                  a.activeCycles() + b.activeCycles());
    }
}

TEST(ActivityProperty, RepeatedMatchesNFoldAppend)
{
    Prng rng(1337);
    for (int iter = 0; iter < 100; ++iter) {
        auto unit = randomTimeline(rng);
        std::uint64_t reps = 2 + rng.uniform(0, 30);

        auto manual = unit;
        for (std::uint64_t i = 1; i < reps; ++i)
            manual.append(unit);
        auto fast = unit.repeated(reps);
        fast.checkInvariants();
        manual.checkInvariants();

        EXPECT_EQ(fast, manual) << "iteration " << iter << " reps "
                                << reps;
    }
}

TEST(ActivityProperty, RepeatedLargeCountsStayExact)
{
    // The overhaul's whole point: repeat counts in the tens of
    // thousands (LLM decode blocks) must stay exact without iterating.
    auto unit = ActivityTimeline::periodic(4096, 3, 16, 128);
    for (std::uint64_t reps : {1024ull, 65536ull, 1048576ull}) {
        auto t = unit.repeated(reps);
        t.checkInvariants();
        EXPECT_EQ(t.span(), unit.span() * reps);
        EXPECT_EQ(t.activeCycles(), unit.activeCycles() * reps);
        Cycles gap_total = 0;
        for (const auto &g : t.gaps())
            gap_total += g.length * g.count;
        EXPECT_EQ(gap_total, t.idleCycles());
    }
}

TEST(ActivityProperty, RepeatedEqualsRepeatedOfRepeated)
{
    Prng rng(777);
    for (int iter = 0; iter < 50; ++iter) {
        auto unit = randomTimeline(rng);
        auto once = unit.repeated(12);
        auto twice = unit.repeated(3).repeated(4);
        // Composition in stages fuses the same seams: totals match.
        EXPECT_EQ(once.span(), twice.span());
        EXPECT_EQ(once.activeCycles(), twice.activeCycles());
        EXPECT_EQ(once.activations(), twice.activations());
    }
}

TEST(ActivityProperty, GapsAlwaysSortedStrictlyAscending)
{
    Prng rng(31);
    for (int iter = 0; iter < 100; ++iter) {
        auto a = randomTimeline(rng);
        auto b = randomTimeline(rng);
        a.append(b);
        auto r = a.repeated(1 + rng.uniform(0, 40));
        for (const auto *t : {&a, &r}) {
            Cycles prev = 0;
            for (const auto &g : t->gaps()) {
                EXPECT_GT(g.length, prev);
                EXPECT_GT(g.count, 0u);
                prev = g.length;
            }
        }
    }
}

/** Prefix kinds for appendBursts: empty, all idle, ending active/idle. */
enum class Prefix { Empty, AllIdle, EndsActive, EndsIdle };

ActivityTimeline
randomPrefix(Prng &rng, Prefix kind)
{
    if (kind == Prefix::Empty)
        return ActivityTimeline();
    if (kind == Prefix::AllIdle)
        return ActivityTimeline::allIdle(1 + rng.uniform(0, 60));
    for (;;) {
        auto t = randomTimeline(rng);
        if (t.activeCycles() > 0 &&
            (t.trailingIdle() == 0) == (kind == Prefix::EndsActive))
            return t;
    }
}

/** A burst shape's arguments, covering every fromBursts edge case. */
struct Shape
{
    Cycles span;
    Cycles active;
    std::uint64_t bursts;
};

Shape
randomShape(Prng &rng)
{
    Cycles span = rng.uniform(0, 7) == 0 ? 0 : 1 + rng.uniform(0, 300);
    Cycles active;
    switch (rng.uniform(0, 4)) {
      case 0:
        active = 0;
        break;
      case 1:
        active = span + rng.uniform(0, 3);  // At or beyond the span.
        break;
      default:
        active = span > 1 ? rng.uniform(1, span - 1) : 0;
        break;
    }
    std::uint64_t bursts;
    switch (rng.uniform(0, 3)) {
      case 0:
        bursts = 0;
        break;
      case 1:
        bursts = active + 1 + rng.uniform(0, 20);  // More than active.
        break;
      default:
        bursts = 1 + rng.uniform(0, 40);
        break;
    }
    return {span, active, bursts};
}

TEST(ActivityProperty, AppendBurstsMatchesAppendOfShape)
{
    Prng rng(2718);
    for (auto kind : {Prefix::Empty, Prefix::AllIdle, Prefix::EndsActive,
                      Prefix::EndsIdle}) {
        for (int iter = 0; iter < 300; ++iter) {
            auto fast = randomPrefix(rng, kind);
            auto general = fast;
            // A chain of shapes, so later appends also start from
            // prefixes that appendBursts itself built.
            for (int step = 0; step < 4; ++step) {
                Shape sh = randomShape(rng);
                auto shape =
                    ActivityTimeline::fromBursts(sh.span, sh.active,
                                                 sh.bursts);
                shape.checkInvariants();
                EXPECT_EQ(shape.span(), sh.span);
                EXPECT_EQ(ActivityTimeline::burstActivations(
                              sh.span, sh.active, sh.bursts),
                          shape.activations());

                general.append(shape);
                fast.appendBursts(sh.span, sh.active, sh.bursts);
                fast.checkInvariants();
                ASSERT_TRUE(fast == general)
                    << "prefix " << static_cast<int>(kind) << " iter "
                    << iter << " step " << step << " shape (" << sh.span
                    << ", " << sh.active << ", " << sh.bursts << ")";
            }
        }
    }
}

TEST(ActivityProperty, SelfAppendIsSafe)
{
    auto t = ActivityTimeline::fromIntervals(20, {{2, 5}, {10, 12}});
    auto doubled = t.repeated(2);
    t.append(t);
    EXPECT_EQ(t, doubled);
}

}  // namespace
}  // namespace core
}  // namespace regate
