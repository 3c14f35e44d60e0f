/**
 * @file
 * Tests for the analytical gating engine: per-mode semantics, BET
 * filtering, detection-window waste, and the energy-ordering
 * invariants that underpin Fig. 17.
 */

#include <gtest/gtest.h>

#include "common/error.h"

#include "core/gating_engine.h"

namespace regate {
namespace core {
namespace {

using arch::GatedUnit;
using arch::GatingParams;

UnitSpec
vuSpec(double watts = 5.0)
{
    return {GatedUnit::Vu, watts, 1e-9};
}

TEST(GatingEngine, NoneKeepsFullStaticEnergy)
{
    GatingParams p;
    auto t = ActivityTimeline::periodic(1000, 0, 2, 16);
    auto r = evaluateTimeline(t, vuSpec(), GatingMode::None, p);
    EXPECT_NEAR(r.staticEnergy, r.staticEnergyNoPg,
                1e-12 * r.staticEnergyNoPg);
    EXPECT_EQ(r.gatedCycles, 0u);
    EXPECT_NEAR(r.saved(), 0.0, 1e-12 * r.staticEnergyNoPg);
}

TEST(GatingEngine, IdealGatesEverythingFree)
{
    GatingParams p;
    auto t = ActivityTimeline::periodic(1000, 0, 2, 16);
    auto r = evaluateTimeline(t, vuSpec(), GatingMode::Ideal, p);
    EXPECT_EQ(r.gatedCycles, t.idleCycles());
    EXPECT_NEAR(r.staticEnergy,
                5.0 * 1e-9 * static_cast<double>(t.activeCycles()),
                1e-15);
    EXPECT_DOUBLE_EQ(r.transitionEnergy, 0.0);
}

TEST(GatingEngine, SwExactRespectsBet)
{
    GatingParams p;
    // VU BET = 32: 14-cycle gaps (Fig. 15 pattern) are NOT gated.
    auto t = ActivityTimeline::periodic(160, 0, 2, 16);
    auto r = evaluateTimeline(t, vuSpec(), GatingMode::SwExact, p);
    EXPECT_EQ(r.gatedCycles, 0u);
    EXPECT_NEAR(r.saved(), 0.0, 1e-12 * r.staticEnergyNoPg);

    // 100-cycle gaps pass the BET and 2x-delay rules.
    auto t2 = ActivityTimeline::periodic(1040, 0, 4, 104);
    auto r2 = evaluateTimeline(t2, vuSpec(), GatingMode::SwExact, p);
    EXPECT_GT(r2.gatedCycles, 0u);
    EXPECT_GT(r2.saved(), 0.0);
}

TEST(GatingEngine, SwExactGatedCyclesExcludeTransitions)
{
    GatingParams p;  // VU delay = 2.
    auto t = ActivityTimeline::fromIntervals(200, {{0, 10}, {110, 120}});
    // One inner gap of 100 plus a trailing gap of 80; both > BET.
    auto r = evaluateTimeline(t, vuSpec(), GatingMode::SwExact, p);
    // Each gated interval loses 2 * delay = 4 cycles to transitions.
    EXPECT_EQ(r.gatedCycles, (100u - 4) + (80u - 4));
    EXPECT_EQ(r.gateEvents, 2u);
}

TEST(GatingEngine, HwDetectWastesTheDetectionWindow)
{
    GatingParams p;  // VU window = 10, delay = 2.
    auto t = ActivityTimeline::fromIntervals(200, {{0, 10}, {110, 120}});
    auto r = evaluateTimeline(t, vuSpec(), GatingMode::HwDetect, p);
    EXPECT_EQ(r.gatedCycles, (100u - 10) + (80u - 10));
    EXPECT_EQ(r.gateEvents, 2u);
    EXPECT_GT(r.saved(), 0.0);
}

TEST(GatingEngine, HwDetectGatesBelowBreakEven)
{
    GatingParams p;
    // Gaps of 14 >= window 10 but < BET 32: hardware gates anyway and
    // can lose energy -- ReGate-Base's weakness (§6.2).
    auto t = ActivityTimeline::periodic(160, 0, 2, 16);
    auto r = evaluateTimeline(t, vuSpec(), GatingMode::HwDetect, p);
    EXPECT_GT(r.gateEvents, 0u);
    EXPECT_LT(r.saved(), 0.0);
}

TEST(GatingEngine, ModeOrderingInvariant)
{
    GatingParams p;
    // Long gaps: every mode should save, with Ideal >= SwExact >=
    // HwDetect >= None.
    for (Cycles period : {200u, 1000u, 5000u}) {
        auto t = ActivityTimeline::periodic(period * 10, 0, 20, period);
        auto none = evaluateTimeline(t, vuSpec(), GatingMode::None, p);
        auto hw = evaluateTimeline(t, vuSpec(), GatingMode::HwDetect, p);
        auto sw = evaluateTimeline(t, vuSpec(), GatingMode::SwExact, p);
        auto ideal = evaluateTimeline(t, vuSpec(), GatingMode::Ideal, p);
        EXPECT_GE(ideal.saved(), sw.saved()) << period;
        EXPECT_GE(sw.saved(), hw.saved()) << period;
        EXPECT_GE(hw.saved(), none.saved()) << period;
        EXPECT_NEAR(none.saved(), 0.0,
                    1e-12 * none.staticEnergyNoPg);
    }
}

TEST(GatingEngine, EnergyNeverExceedsNoPg)
{
    GatingParams p;
    auto t = ActivityTimeline::periodic(100000, 0, 50, 5000);
    for (auto mode : {GatingMode::SwExact, GatingMode::Ideal}) {
        auto r = evaluateTimeline(t, vuSpec(), mode, p);
        EXPECT_LE(r.staticEnergy, r.staticEnergyNoPg);
    }
}

TEST(GatingEngine, ScalesLinearlyWithPower)
{
    GatingParams p;
    auto t = ActivityTimeline::periodic(10000, 0, 10, 1000);
    auto r1 = evaluateTimeline(t, vuSpec(1.0), GatingMode::SwExact, p);
    auto r2 = evaluateTimeline(t, vuSpec(2.0), GatingMode::SwExact, p);
    EXPECT_NEAR(r2.staticEnergy, 2 * r1.staticEnergy, 1e-12);
    EXPECT_NEAR(r2.saved(), 2 * r1.saved(), 1e-12);
}

TEST(GatingEngine, DelayScalingReducesSavings)
{
    // Fig. 22: longer wake-up delays -> larger BET -> fewer gated
    // intervals and less saving.
    auto t = ActivityTimeline::periodic(100000, 0, 10, 120);
    GatingParams p1;
    GatingParams p4;
    p4.setDelayScale(4.0);
    auto r1 = evaluateTimeline(t, vuSpec(), GatingMode::SwExact, p1);
    auto r4 = evaluateTimeline(t, vuSpec(), GatingMode::SwExact, p4);
    EXPECT_GT(r1.saved(), r4.saved());
}

TEST(GatingEngine, LeakageRatioSweep)
{
    // Fig. 21: higher gated leakage -> smaller savings.
    auto t = ActivityTimeline::periodic(100000, 0, 10, 2000);
    double prev = 1e18;
    for (double leak : {0.03, 0.1, 0.2, 0.4, 0.6}) {
        arch::LeakageRatios r;
        r.logicOff = leak;
        GatingParams p(r);
        auto res = evaluateTimeline(t, vuSpec(), GatingMode::SwExact, p);
        EXPECT_LT(res.saved(), prev);
        prev = res.saved();
    }
}

TEST(GatingEngine, RejectsBadSpec)
{
    GatingParams p;
    auto t = ActivityTimeline::allActive(10);
    UnitSpec bad{GatedUnit::Vu, -1.0, 1e-9};
    EXPECT_THROW(evaluateTimeline(t, bad, GatingMode::None, p),
                 ConfigError);
    UnitSpec bad2{GatedUnit::Vu, 1.0, 0.0};
    EXPECT_THROW(evaluateTimeline(t, bad2, GatingMode::None, p),
                 ConfigError);
}

}  // namespace
}  // namespace core
}  // namespace regate
