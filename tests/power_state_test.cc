/**
 * @file
 * Tests for the §4.2 power-mode names.
 */

#include <gtest/gtest.h>

#include "core/power_state.h"

namespace regate {
namespace core {
namespace {

TEST(PowerState, ModeNames)
{
    EXPECT_EQ(powerModeName(PowerMode::Auto), "auto");
    EXPECT_EQ(powerModeName(PowerMode::On), "on");
    EXPECT_EQ(powerModeName(PowerMode::Off), "off");
    EXPECT_EQ(powerModeName(PowerMode::Sleep), "sleep");
}

}  // namespace
}  // namespace core
}  // namespace regate
