/**
 * @file
 * Tests for the VLIW core timing model, including an
 * instruction-by-instruction reproduction of the paper's Fig. 15
 * setpm timeline.
 */

#include <gtest/gtest.h>

#include "common/error.h"

#include "isa/vliw_core.h"

namespace regate {
namespace isa {
namespace {

VliwCoreConfig
fig15Core()
{
    // Fig. 15: 2 SAs, 2 VUs; pop takes 8 cycles; VU on/off delay 2.
    VliwCoreConfig cfg;
    cfg.numSa = 2;
    cfg.numVu = 2;
    cfg.vuWakeDelay = 2;
    cfg.saWakeDelay = 10;
    return cfg;
}

/** The exact Fig. 15 program. */
Program
fig15Program()
{
    Program p;
    // I1: {pop.sa0; pop.sa1; vadd.vu0; vadd.vu1;}
    p.bundle().saPop(0).saPop(1).vuOp(0).vuOp(1);
    // I2: {vadd.vu0; vadd.vu1; setpm 0b11,vu,off;}
    p.bundle().vuOp(0).vuOp(1).setpm(0b11, FuType::Vu,
                                     PowerMode::Off);
    // I3: {pop.sa0; pop.sa1; nop 6;}
    p.bundle().saPop(0).saPop(1).nop(6);
    // I4: {setpm 0b11,vu,on;}
    p.bundle().setpm(0b11, FuType::Vu, PowerMode::On);
    // I5: {pop.sa0; pop.sa1; vadd.vu0; vadd.vu1;}
    p.bundle().saPop(0).saPop(1).vuOp(0).vuOp(1);
    // I6: {vadd.vu0; vadd.vu1; setpm 0b11,vu,off;}
    p.bundle().vuOp(0).vuOp(1).setpm(0b11, FuType::Vu,
                                     PowerMode::Off);
    return p;
}

TEST(VliwCore, Fig15Timeline)
{
    VliwCore core(fig15Core());
    core.run(fig15Program());

    const auto &dispatch = core.bundleDispatch();
    ASSERT_EQ(dispatch.size(), 6u);
    // I1 at 0; I2 at 1; I3 waits for the SA pops (8); I4 after the
    // 6-cycle nop (14); I5 when SA free and VUs awake (16); I6 at 17.
    EXPECT_EQ(dispatch[0], 0u);
    EXPECT_EQ(dispatch[1], 1u);
    EXPECT_EQ(dispatch[2], 8u);
    EXPECT_EQ(dispatch[3], 14u);
    EXPECT_EQ(dispatch[4], 16u);
    EXPECT_EQ(dispatch[5], 17u);

    // No stall: the setpm-on wake (done at 16) meets the SA (free at
    // 16) exactly, the paper's point about software pre-waking.
    EXPECT_EQ(core.wakeStallCycles(), 0u);
    EXPECT_EQ(core.setpmExecuted(), 3u);

    // Each VU is power-gated for 10 cycles (paper: "ReGate maximizes
    // the power-gated cycles of VUs (10 cycles in the example)"),
    // plus a tail interval from I6's setpm-off to the end of the run.
    for (int v = 0; v < 2; ++v) {
        const auto &trace = core.vuTrace(v);
        ASSERT_EQ(trace.gated.size(), 2u) << v;
        // Gating becomes effective 2 cycles (off delay) after the
        // last vadd retires at cycle 2.
        EXPECT_EQ(trace.gated[0].start, 4u) << v;
        EXPECT_EQ(trace.gated[0].end, 14u) << v;
        EXPECT_EQ(trace.gated[0].length(), 10u) << v;
        EXPECT_EQ(trace.gated[1].start, 20u) << v;
        EXPECT_EQ(trace.gated[1].end, core.totalCycles()) << v;
    }
}

TEST(VliwCore, StructuralHazardOnBusyUnit)
{
    VliwCoreConfig cfg = fig15Core();
    VliwCore core(cfg);
    Program p;
    p.bundle().saPop(0);       // Busy [0, 8).
    p.bundle().saPop(0);       // Must wait until 8.
    core.run(p);
    EXPECT_EQ(core.bundleDispatch()[1], 8u);
}

TEST(VliwCore, GatedUnitWakesOnDispatch)
{
    VliwCoreConfig cfg = fig15Core();
    VliwCore core(cfg);
    Program p;
    p.bundle().vuOp(0);
    p.bundle().setpm(0b1, FuType::Vu, PowerMode::Off);
    p.bundle().vuOp(0);  // Wakes the VU: stalls 2 cycles.
    core.run(p);
    const auto &dispatch = core.bundleDispatch();
    EXPECT_EQ(dispatch[2], dispatch[1] + 1 + cfg.vuWakeDelay);
    EXPECT_EQ(core.wakeStallCycles(), cfg.vuWakeDelay);
    EXPECT_EQ(core.vuTrace(0).wakeEvents, 1u);
}

TEST(VliwCore, AutoIdleDetectionGatesAndStalls)
{
    VliwCoreConfig cfg = fig15Core();
    cfg.autoIdleDetect = true;
    cfg.vuIdleWindow = 10;
    VliwCore core(cfg);
    Program p;
    p.bundle().vuOp(0);
    p.bundle().saPop(0, 50);
    // The VU idles ~50 cycles (> window) while the pop runs; the
    // hardware gates it, and the next VU op pays the wake.
    p.bundle().saPop(0).vuOp(0);
    core.run(p);
    EXPECT_EQ(core.vuTrace(0).wakeEvents, 1u);
    EXPECT_GT(core.vuTrace(0).gatedCycles(), 0u);
    EXPECT_EQ(core.wakeStallCycles(), cfg.vuWakeDelay);
}

TEST(VliwCore, NoAutoDetectNoGating)
{
    VliwCoreConfig cfg = fig15Core();
    cfg.autoIdleDetect = false;
    VliwCore core(cfg);
    Program p;
    p.bundle().vuOp(0);
    p.bundle().saPop(0, 50);
    p.bundle().saPop(0).vuOp(0);
    core.run(p);
    EXPECT_EQ(core.vuTrace(0).wakeEvents, 0u);
    EXPECT_EQ(core.wakeStallCycles(), 0u);
}

TEST(VliwCore, ActivityTimelineExport)
{
    VliwCore core(fig15Core());
    core.run(fig15Program());
    auto vu = core.vuActivity(0);
    EXPECT_EQ(vu.span(), core.totalCycles());
    // vadds at cycles 0, 1, 16, 17 -> 4 active cycles, 2 runs.
    EXPECT_EQ(vu.activeCycles(), 4u);
    EXPECT_EQ(vu.activations(), 2u);
    auto sa = core.saActivity(0);
    EXPECT_EQ(sa.activeCycles(), 24u);  // Three 8-cycle pops.
}

TEST(VliwCore, RunIsSingleShot)
{
    VliwCore core(fig15Core());
    Program p;
    p.bundle().vuOp(0);
    core.run(p);
    EXPECT_THROW(core.run(p), ConfigError);
}

TEST(VliwCore, RejectsBadUnitIndices)
{
    VliwCore core(fig15Core());
    Program p;
    p.bundle().vuOp(5);
    EXPECT_THROW(core.run(p), ConfigError);
    EXPECT_THROW(core.vuTrace(9), ConfigError);
}

TEST(VliwCore, RejectsSramAndDmaSetpm)
{
    // The core executes SA/VU setpm only: the engine charges SRAM
    // capacity gating, and HBM/DMA gating is hardware-managed.
    Program sram;
    sram.bundle().setpmSram(1, 2, PowerMode::Off);
    Program dma;
    dma.bundle().setpm(0b1, FuType::Dma, PowerMode::Off);
    for (const Program *p : {&sram, &dma}) {
        VliwCore core(fig15Core());
        try {
            core.run(*p);
            ADD_FAILURE() << p->bundles()[0].misc->toString()
                          << " executed";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "SRAM capacity gating is charged by "
                          "sim::Engine, and HBM/DMA gating is "
                          "hardware-managed"),
                      std::string::npos)
                << e.what();
        }
    }
}

}  // namespace
}  // namespace isa
}  // namespace regate
