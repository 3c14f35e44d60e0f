/**
 * @file
 * Tests for the area/power/energy models, including the paper's §3
 * per-component static-power bands and the §4.4 area-overhead claim.
 */

#include <gtest/gtest.h>

#include "energy/area_model.h"
#include "energy/energy_breakdown.h"
#include "energy/power_model.h"

namespace regate {
namespace energy {
namespace {

using arch::Component;
using arch::NpuGeneration;

TEST(AreaModel, ComponentAreasPositive)
{
    for (auto gen : arch::allGenerations()) {
        AreaModel area(arch::npuConfig(gen));
        for (auto c : arch::kAllComponents)
            EXPECT_GT(area.baseline().mm2[c], 0.0)
                << arch::componentName(c);
        EXPECT_GT(area.baseline().total(), 50.0);   // A real die.
        EXPECT_LT(area.baseline().total(), 1000.0); // Not a wafer.
    }
}

TEST(AreaModel, GatingOverheadMatchesPaperClaim)
{
    // §4.4: ReGate adds < ~3.3% chip area on a TPUv4i-class chip.
    AreaModel area(arch::npuConfig(NpuGeneration::D));
    EXPECT_GT(area.gatingOverheadFraction(), 0.01);
    EXPECT_LT(area.gatingOverheadFraction(), 0.045);
}

TEST(AreaModel, NewerNodesDensify)
{
    AreaModel a(arch::npuConfig(NpuGeneration::A));
    AreaModel d(arch::npuConfig(NpuGeneration::D));
    // NPU-D has 4x the SAs of NPU-A but a denser node: per-SA area
    // must shrink.
    EXPECT_LT(d.saArea(), a.saArea());
    EXPECT_LT(d.peArea(), a.peArea());
}

TEST(PowerModel, StaticSharesWithinPaperBands)
{
    // §3 bands (averages over generations/workloads); we check the
    // NPU-D chip-level shares land inside them.
    PowerModel p(arch::npuConfig(NpuGeneration::D));
    double total = p.totalStaticPower();
    auto share = [&](Component c) { return p.staticPower(c) / total; };

    EXPECT_GE(share(Component::Sa), 0.08);    // 8%-14%
    EXPECT_LE(share(Component::Sa), 0.14);
    EXPECT_GE(share(Component::Vu), 0.019);   // 1.9%-5.6%
    EXPECT_LE(share(Component::Vu), 0.056);
    EXPECT_GE(share(Component::Sram), 0.154); // 15.4%-24.4%
    EXPECT_LE(share(Component::Sram), 0.244);
    EXPECT_GE(share(Component::Hbm), 0.09);   // 9.0%-22.4%
    EXPECT_LE(share(Component::Hbm), 0.224);
    EXPECT_GE(share(Component::Ici), 0.053);  // 5.3%-12.0%
    EXPECT_LE(share(Component::Ici), 0.12);
    EXPECT_GE(share(Component::Other), 0.391);// 39.1%-45.8%
    EXPECT_LE(share(Component::Other), 0.458);
}

TEST(PowerModel, StaticPowerPlausible)
{
    // Total static power should be a two-to-low-three-digit wattage.
    for (auto gen : arch::allGenerations()) {
        PowerModel p(arch::npuConfig(gen));
        EXPECT_GT(p.totalStaticPower(), 30.0);
        EXPECT_LT(p.totalStaticPower(), 400.0);
    }
}

TEST(PowerModel, UnitPowersConsistent)
{
    PowerModel p(arch::npuConfig(NpuGeneration::D));
    const auto &cfg = arch::npuConfig(NpuGeneration::D);
    EXPECT_NEAR(p.saStaticPower() * cfg.numSa,
                p.staticPower(Component::Sa), 1e-9);
    EXPECT_NEAR(p.peStaticPower() * cfg.saWidth * cfg.saWidth,
                p.saStaticPower(), 1e-9);
    EXPECT_NEAR(p.vuStaticPower() * cfg.numVu,
                p.staticPower(Component::Vu), 1e-9);
    EXPECT_NEAR(p.sramSegmentStaticPower() * cfg.sramSegments(),
                p.staticPower(Component::Sram), 1e-6);
}

TEST(PowerModel, DynamicEnergyScalesWithWork)
{
    PowerModel p(arch::npuConfig(NpuGeneration::D));
    WorkCounters w;
    w.macs = 1e12;
    w.hbmBytes = 1e9;
    auto e1 = p.dynamicEnergy(w);
    w.macs *= 2;
    auto e2 = p.dynamicEnergy(w);
    EXPECT_NEAR(e2[Component::Sa], 2 * e1[Component::Sa], 1e-9);
    EXPECT_DOUBLE_EQ(e2[Component::Hbm], e1[Component::Hbm]);
    EXPECT_GT(e1[Component::Other], 0.0);  // Control/clock overhead.
}

TEST(PowerModel, NewerNodesMoreEfficient)
{
    // FLOPs per watt of peak-compute dynamic power must improve
    // A -> D (Fig. 2 trend driver).
    auto flops_per_watt = [](NpuGeneration gen) {
        const auto &cfg = arch::npuConfig(gen);
        PowerModel p(cfg);
        WorkCounters w;
        w.macs = cfg.peakMacs();  // One second at full tilt.
        double watts =
            p.dynamicEnergy(w).sum() + p.totalStaticPower();
        return cfg.peakFlops() / watts;
    };
    EXPECT_GT(flops_per_watt(NpuGeneration::B),
              flops_per_watt(NpuGeneration::A) * 0.99);
    EXPECT_GT(flops_per_watt(NpuGeneration::D),
              flops_per_watt(NpuGeneration::A) * 1.5);
}

TEST(WorkCounters, Accumulate)
{
    WorkCounters a, b;
    a.macs = 1;
    b.macs = 2;
    b.vuOps = 3;
    a += b;
    EXPECT_DOUBLE_EQ(a.macs, 3.0);
    EXPECT_DOUBLE_EQ(a.vuOps, 3.0);
}

TEST(EnergyBreakdown, Shares)
{
    EnergyBreakdown e;
    e.staticJ[Component::Sa] = 30;
    e.staticJ[Component::Sram] = 10;
    e.dynamicJ[Component::Sa] = 60;
    e.idleJ = 100;

    EXPECT_DOUBLE_EQ(e.busyTotal(), 100.0);
    EXPECT_DOUBLE_EQ(e.total(), 200.0);
    EXPECT_DOUBLE_EQ(e.staticShareBusy(), 0.4);
}

}  // namespace
}  // namespace energy
}  // namespace regate
