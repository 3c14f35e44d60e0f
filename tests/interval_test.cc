/**
 * @file
 * Tests for interval normalization, complement, and trace extraction.
 */

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/interval.h"

namespace regate {
namespace core {
namespace {

TEST(Interval, Basics)
{
    Interval iv{2, 5};
    EXPECT_EQ(iv.length(), 3u);
    EXPECT_FALSE(iv.empty());
    EXPECT_TRUE((Interval{3, 3}).empty());
}

TEST(Interval, NormalizeSortsAndMerges)
{
    auto out = normalize({{5, 8}, {0, 2}, {2, 4}, {7, 10}});
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], (Interval{0, 4}));
    EXPECT_EQ(out[1], (Interval{5, 10}));
}

TEST(Interval, NormalizeDropsEmpties)
{
    auto out = normalize({{3, 3}, {1, 2}});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], (Interval{1, 2}));
}

TEST(Interval, NormalizeRejectsBackwards)
{
    EXPECT_THROW(normalize({{5, 2}}), ConfigError);
}

TEST(Interval, CoveredLength)
{
    EXPECT_EQ(coveredLength(normalize({{0, 3}, {10, 14}})), 7u);
    EXPECT_EQ(coveredLength({}), 0u);
}

TEST(Interval, Complement)
{
    auto idle = complementWithin(normalize({{2, 4}, {6, 8}}), 10);
    ASSERT_EQ(idle.size(), 3u);
    EXPECT_EQ(idle[0], (Interval{0, 2}));
    EXPECT_EQ(idle[1], (Interval{4, 6}));
    EXPECT_EQ(idle[2], (Interval{8, 10}));
}

TEST(Interval, ComplementFullCoverage)
{
    EXPECT_TRUE(complementWithin({{0, 10}}, 10).empty());
}

TEST(Interval, ComplementEmptyInput)
{
    auto idle = complementWithin({}, 5);
    ASSERT_EQ(idle.size(), 1u);
    EXPECT_EQ(idle[0], (Interval{0, 5}));
}

TEST(Interval, ComplementRejectsOverrun)
{
    EXPECT_THROW(complementWithin({{0, 11}}, 10), ConfigError);
}

}  // namespace
}  // namespace core
}  // namespace regate
