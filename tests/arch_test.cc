/**
 * @file
 * Tests for the NPU configurations (Table 2) and power-gating
 * parameters (Table 3).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "arch/component.h"
#include "arch/gating_params.h"
#include "arch/npu_config.h"
#include "common/error.h"

namespace regate {
namespace arch {
namespace {

TEST(NpuConfig, Table2Values)
{
    const auto &a = npuConfig(NpuGeneration::A);
    EXPECT_EQ(a.name, "NPU-A");
    EXPECT_EQ(a.deploymentYear, 2017);
    EXPECT_EQ(a.numSa, 2);
    EXPECT_EQ(a.saWidth, 128);
    EXPECT_EQ(a.sramBytes, units::MiB(32));
    EXPECT_EQ(a.iciLinks, 4);
    EXPECT_EQ(a.torusDims, 2);

    const auto &d = npuConfig(NpuGeneration::D);
    EXPECT_EQ(d.numSa, 8);
    EXPECT_EQ(d.numVu, 6);
    EXPECT_EQ(d.hbmType, "HBM2e");
    EXPECT_EQ(d.torusDims, 3);
    EXPECT_DOUBLE_EQ(d.hbmBandwidth, units::GBps(2765));

    const auto &e = npuConfig(NpuGeneration::E);
    EXPECT_EQ(e.saWidth, 256);
    EXPECT_EQ(e.sramBytes, units::MiB(256));
}

TEST(NpuConfig, PeakFlopsMatchesPublicTpuNumbers)
{
    // TPUv2 ~46 TFLOPs, TPUv3 ~123 TFLOPs, TPUv5p ~459 TFLOPs bf16.
    EXPECT_NEAR(npuConfig(NpuGeneration::A).peakFlops() / 1e12, 45.9,
                0.5);
    EXPECT_NEAR(npuConfig(NpuGeneration::B).peakFlops() / 1e12, 123.2,
                1.0);
    EXPECT_NEAR(npuConfig(NpuGeneration::D).peakFlops() / 1e12, 458.8,
                1.0);
}

TEST(NpuConfig, DerivedQuantities)
{
    const auto &d = npuConfig(NpuGeneration::D);
    EXPECT_EQ(d.vuLanes(), 1024);
    EXPECT_EQ(d.sramSegments(), units::MiB(128) / units::KiB(4));
    EXPECT_DOUBLE_EQ(d.iciBandwidth(), 6 * units::GBps(100));
    EXPECT_EQ(d.cyclesFor(0.0), 0u);
    EXPECT_EQ(d.cyclesFor(1.0 / d.frequencyHz), 1u);
}

TEST(NpuConfig, LookupByName)
{
    EXPECT_EQ(npuConfigByName("NPU-C").generation, NpuGeneration::C);
    EXPECT_EQ(npuConfigByName("c").generation, NpuGeneration::C);
    EXPECT_THROW(npuConfigByName("NPU-Z"), ConfigError);
}

TEST(NpuConfig, AllGenerationsValidate)
{
    for (auto gen : allGenerations())
        EXPECT_NO_THROW(npuConfig(gen).validate());
}

TEST(GatingParams, Table3Defaults)
{
    GatingParams p;
    EXPECT_EQ(p.onOffDelay(GatedUnit::SaPe), 1u);
    EXPECT_EQ(p.breakEven(GatedUnit::SaPe), 47u);
    EXPECT_EQ(p.onOffDelay(GatedUnit::SaFull), 10u);
    EXPECT_EQ(p.breakEven(GatedUnit::SaFull), 469u);
    EXPECT_EQ(p.onOffDelay(GatedUnit::Vu), 2u);
    EXPECT_EQ(p.breakEven(GatedUnit::Vu), 32u);
    EXPECT_EQ(p.onOffDelay(GatedUnit::Hbm), 60u);
    EXPECT_EQ(p.breakEven(GatedUnit::Hbm), 412u);
    EXPECT_EQ(p.onOffDelay(GatedUnit::Ici), 60u);
    EXPECT_EQ(p.breakEven(GatedUnit::Ici), 459u);
    EXPECT_EQ(p.onOffDelay(GatedUnit::SramSleep), 4u);
    EXPECT_EQ(p.breakEven(GatedUnit::SramSleep), 41u);
    EXPECT_EQ(p.onOffDelay(GatedUnit::SramOff), 10u);
    EXPECT_EQ(p.breakEven(GatedUnit::SramOff), 82u);
}

TEST(GatingParams, DefaultLeakageRatios)
{
    GatingParams p;
    EXPECT_DOUBLE_EQ(p.gatedLeakage(GatedUnit::Vu), 0.03);
    EXPECT_DOUBLE_EQ(p.gatedLeakage(GatedUnit::SramSleep), 0.25);
    EXPECT_DOUBLE_EQ(p.gatedLeakage(GatedUnit::SramOff), 0.002);
}

TEST(GatingParams, DetectionWindowIsThirdOfBet)
{
    GatingParams p;
    EXPECT_EQ(p.detectionWindow(GatedUnit::SaFull), 469u / 3);
    EXPECT_EQ(p.detectionWindow(GatedUnit::Vu), 32u / 3);
    EXPECT_GE(p.detectionWindow(GatedUnit::SaPe), 1u);
}

TEST(GatingParams, DelayScaleRoundsUp)
{
    GatingParams p;
    p.setDelayScale(1.5);
    EXPECT_EQ(p.onOffDelay(GatedUnit::SaPe), 2u);   // ceil(1.5)
    EXPECT_EQ(p.onOffDelay(GatedUnit::Vu), 3u);     // ceil(3)
    EXPECT_EQ(p.breakEven(GatedUnit::Vu), 48u);
    EXPECT_THROW(p.setDelayScale(0.0), ConfigError);
    EXPECT_THROW(p.setDelayScale(-1.0), ConfigError);
}

TEST(GatingParams, DelayScaleMustKeepCyclesInRange)
{
    // SA full-array BET (469 cycles) is the largest Table-3 entry.
    EXPECT_TRUE(GatingParams::delayScaleFits(1e16));
    EXPECT_FALSE(GatingParams::delayScaleFits(0x1p64 / 469 * 1.001));
    EXPECT_FALSE(GatingParams::delayScaleFits(1e30));
    EXPECT_FALSE(GatingParams::delayScaleFits(std::nan("")));
    EXPECT_FALSE(GatingParams::delayScaleFits(
        std::numeric_limits<double>::infinity()));
    GatingParams p;
    EXPECT_THROW(p.setDelayScale(1e30), ConfigError);
    p.setDelayScale(1e16);
    EXPECT_EQ(p.breakEven(GatedUnit::SaFull), Cycles{4690000000000000000u});
}

TEST(GatingParams, CustomRatios)
{
    LeakageRatios r;
    r.logicOff = 0.2;
    r.sramSleep = 0.4;
    r.sramOff = 0.1;
    GatingParams p(r);
    EXPECT_DOUBLE_EQ(p.gatedLeakage(GatedUnit::Hbm), 0.2);
    EXPECT_DOUBLE_EQ(p.gatedLeakage(GatedUnit::SramSleep), 0.4);
    EXPECT_DOUBLE_EQ(p.gatedLeakage(GatedUnit::SramOff), 0.1);
}

TEST(Component, NamesAndMap)
{
    EXPECT_EQ(componentName(Component::Sa), "SA");
    EXPECT_EQ(componentName(Component::Other), "Other");

    ComponentMap<double> m;
    m[Component::Sa] = 1.5;
    m[Component::Hbm] = 2.5;
    EXPECT_DOUBLE_EQ(m.sum(), 4.0);

    ComponentMap<double> n;
    n[Component::Sa] = 1.0;
    m += n;
    EXPECT_DOUBLE_EQ(m[Component::Sa], 2.5);
}

TEST(GatedUnit, Names)
{
    EXPECT_EQ(gatedUnitName(GatedUnit::SaPe), "SA (PE)");
    EXPECT_EQ(gatedUnitName(GatedUnit::SramOff), "SRAM (off)");
}

}  // namespace
}  // namespace arch
}  // namespace regate
