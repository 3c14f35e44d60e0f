/**
 * @file
 * Tests for the break-even-time arithmetic (§2.3, §4.3).
 */

#include <gtest/gtest.h>

#include "common/error.h"

#include "core/bet.h"

namespace regate {
namespace core {
namespace {

TEST(Bet, TransitionEnergyDefinition)
{
    // At exactly BET cycles of idleness, gating saves nothing:
    // savings(BET) == 0 by construction.
    double p = 2.0, tau = 1e-9, leak = 0.03;
    Cycles bet = 100, delay = 10;
    double e_tr = transitionEnergy(p, bet, delay, leak, tau);
    // Leakage avoided over the gated cycles, less the transitions.
    double saving = (1.0 - leak) * p * tau *
                        static_cast<double>(bet - 2 * delay) -
                    e_tr;
    EXPECT_NEAR(saving, 0.0, 1e-15);
}

TEST(Bet, TransitionEnergyEdgeCases)
{
    // BET shorter than the transition pair: nothing to amortize.
    EXPECT_DOUBLE_EQ(transitionEnergy(1.0, 10, 10, 0.0, 1e-9), 0.0);
    EXPECT_THROW(transitionEnergy(-1.0, 10, 1, 0.0, 1e-9),
                 ConfigError);
    EXPECT_THROW(transitionEnergy(1.0, 10, 1, 1.5, 1e-9), ConfigError);
}

TEST(Bet, SwPolicyRule)
{
    // §4.3: gate iff idle > BET and idle > 2x delay.
    EXPECT_TRUE(shouldGateSw(100, 32, 2));
    EXPECT_FALSE(shouldGateSw(32, 32, 2));   // == BET: no.
    EXPECT_FALSE(shouldGateSw(30, 32, 2));
    EXPECT_FALSE(shouldGateSw(100, 32, 60)); // 2x delay dominates.
    EXPECT_TRUE(shouldGateSw(121, 32, 60));
}

TEST(Bet, HwPolicyRule)
{
    EXPECT_TRUE(wouldGateHw(10, 10));
    EXPECT_FALSE(wouldGateHw(9, 10));
}

}  // namespace
}  // namespace core
}  // namespace regate
