/**
 * @file
 * Tests for the idleness analysis + setpm instrumentation passes
 * (§4.3): intervals below BET are left alone, long intervals get
 * off/on pairs, and the instrumented program runs without exposed
 * stalls while gating the VUs.
 */

#include <gtest/gtest.h>

#include "common/error.h"

#include "compiler/compiler.h"

namespace regate {
namespace compiler {
namespace {

isa::VliwCoreConfig
coreCfg()
{
    isa::VliwCoreConfig cfg;
    cfg.numSa = 2;
    cfg.numVu = 2;
    return cfg;
}

TEST(Idleness, FindsVuGaps)
{
    KernelSpec spec;
    spec.tiles = 4;
    spec.popCycles = 50;
    spec.vuOpsPerTile = 2;
    auto prog = buildMatmulKernel(spec);
    auto analysis = analyzeVuIdleness(prog, coreCfg());

    // 3 inner gaps per VU of ~48 cycles.
    int per_vu = 0;
    for (const auto &idle : analysis.vuIdle) {
        if (idle.unit == 0) {
            ++per_vu;
            EXPECT_NEAR(static_cast<double>(idle.interval.length()),
                        48.0, 2.0);
        }
    }
    EXPECT_EQ(per_vu, 3);
    EXPECT_EQ(analysis.bundleDispatch.size(), prog.size());
}

TEST(Instrument, ShortGapsNotGated)
{
    // Fig. 15-sized gaps (14 cycles) are below the 32-cycle VU BET:
    // no setpm inserted.
    KernelSpec spec;
    spec.tiles = 4;
    spec.popCycles = 16;
    spec.vuOpsPerTile = 2;
    arch::GatingParams params;
    auto result = compileKernel(spec, coreCfg(), params);
    EXPECT_EQ(result.instrumentation.gatedIntervals, 0u);
    EXPECT_EQ(result.program.setpmCount(), 0u);
}

TEST(Instrument, LongGapsGetSetpmPairs)
{
    KernelSpec spec;
    spec.tiles = 4;
    spec.popCycles = 100;  // 98-cycle gaps > BET.
    spec.vuOpsPerTile = 2;
    arch::GatingParams params;
    auto result = compileKernel(spec, coreCfg(), params);

    // Both VUs gate in all 3 inner gaps, sharing bundles via bitmaps.
    EXPECT_EQ(result.instrumentation.gatedIntervals, 6u);
    EXPECT_GT(result.instrumentation.gatedCycles, 0u);
    EXPECT_GT(result.program.setpmCount(), 0u);

    // Off-setpm rides the last VU bundle of each tile with a
    // two-unit bitmap.
    bool merged = false;
    for (const auto &b : result.program.bundles()) {
        if (b.misc.has_value() &&
            b.misc->mode == isa::PowerMode::Off) {
            EXPECT_EQ(b.misc->bitmap, 0b11);
            merged = true;
        }
    }
    EXPECT_TRUE(merged);
}

TEST(Instrument, InstrumentedKernelGatesWithoutStalls)
{
    KernelSpec spec;
    spec.tiles = 6;
    spec.popCycles = 100;
    spec.vuOpsPerTile = 2;
    arch::GatingParams params;
    auto result = compileKernel(spec, coreCfg(), params);

    // Baseline timing.
    isa::VliwCore base(coreCfg());
    base.run(buildMatmulKernel(spec));

    // Instrumented run: same total cycles (software pre-wake hides
    // the delays), VUs spend most of the kernel power-gated.
    isa::VliwCore gated(coreCfg());
    gated.run(result.program);
    EXPECT_EQ(gated.totalCycles(), base.totalCycles());
    EXPECT_EQ(gated.wakeStallCycles(), 0u);
    EXPECT_GT(gated.vuTrace(0).gatedCycles(),
              gated.totalCycles() / 2);
}

TEST(Instrument, RespectsBetScaling)
{
    KernelSpec spec;
    spec.tiles = 4;
    spec.popCycles = 100;
    spec.vuOpsPerTile = 2;
    arch::GatingParams scaled;
    scaled.setDelayScale(4.0);  // VU BET: 32 -> 128 > the 98 gaps.
    auto result = compileKernel(spec, coreCfg(), scaled);
    EXPECT_EQ(result.instrumentation.gatedIntervals, 0u);
}

TEST(Instrument, AnalysisProgramMismatchRejected)
{
    KernelSpec a, b;
    a.tiles = 2;
    b.tiles = 3;
    auto prog_a = buildMatmulKernel(a);
    auto prog_b = buildMatmulKernel(b);
    auto analysis_b = analyzeVuIdleness(prog_b, coreCfg());
    arch::GatingParams params;
    EXPECT_THROW(instrumentVuGating(prog_a, analysis_b, params),
                 LogicError);
}

}  // namespace
}  // namespace compiler
}  // namespace regate
