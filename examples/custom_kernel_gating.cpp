/**
 * @file
 * Kernel-level power gating with the setpm ISA: hand-write a VLIW
 * kernel (the paper's Fig. 15) and let the compiler instrument a
 * larger one automatically — the §4.2/§4.3 software stack at
 * instruction granularity.
 */

#include <iostream>

#include "compiler/compiler.h"
#include "isa/vliw_core.h"

int
main()
{
    using namespace regate;
    using isa::PowerMode;
    using isa::FuType;

    // --- 1. Hand-written setpm, exactly like the paper's Fig. 15 ---
    isa::VliwCoreConfig cfg;
    cfg.numSa = 2;
    cfg.numVu = 2;
    cfg.vuWakeDelay = 2;

    isa::Program manual;
    manual.bundle().saPop(0).saPop(1).vuOp(0).vuOp(1);
    manual.bundle().vuOp(0).vuOp(1).setpm(0b11, FuType::Vu,
                                          PowerMode::Off);
    manual.bundle().saPop(0).saPop(1).nop(6);
    manual.bundle().setpm(0b11, FuType::Vu, PowerMode::On);
    manual.bundle().saPop(0).saPop(1).vuOp(0).vuOp(1);
    manual.bundle().vuOp(0).vuOp(1).setpm(0b11, FuType::Vu,
                                          PowerMode::Off);

    isa::VliwCore core(cfg);
    core.run(manual);
    std::cout << "Hand-written Fig. 15 kernel: " << core.totalCycles()
              << " cycles, VU0 gated "
              << core.vuTrace(0).gatedCycles() << " cycles, stalls "
              << core.wakeStallCycles() << "\n";
    for (const auto &b : manual.bundles()) {
        if (b.misc.has_value())
            std::cout << "  " << b.misc->toString() << " (encoded 0x"
                      << std::hex << isa::encodeSetpm(*b.misc)
                      << std::dec << ")\n";
    }

    // --- 2. Compiler-instrumented kernel (§4.3) ---
    compiler::KernelSpec spec;
    spec.tiles = 32;
    spec.popCycles = 200;
    spec.vuOpsPerTile = 4;
    auto compiled = compiler::compileKernel(spec, cfg, {});
    isa::VliwCore gated(cfg);
    gated.run(compiled.program);
    std::cout << "\nCompiler-instrumented kernel: "
              << compiled.instrumentation.gatedIntervals
              << " gated intervals, "
              << compiled.instrumentation.setpmInserted
              << " setpm, VU0 gated "
              << gated.vuTrace(0).gatedCycles() << " / "
              << gated.totalCycles() << " cycles, stalls "
              << gated.wakeStallCycles() << "\n";

    return 0;
}
