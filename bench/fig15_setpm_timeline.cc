/**
 * @file
 * Fig. 15: the setpm VU-gating example, executed instruction by
 * instruction on the VLIW core model; then the same pattern produced
 * automatically by the compiler's idleness + instrumentation passes
 * on a larger kernel.
 */

#include "bench/bench_util.h"
#include "compiler/compiler.h"
#include "isa/vliw_core.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    using isa::PowerMode;
    using isa::FuType;
    bench::initBenchNoGrid(argc, argv);
    bench::banner("Figure 15",
                  "setpm power-gating timeline on the VLIW core");

    // The paper's exact program: 2 SAs, 2 VUs, 8-cycle pops,
    // 2-cycle VU on/off delay.
    isa::VliwCoreConfig cfg;
    cfg.numSa = 2;
    cfg.numVu = 2;
    cfg.vuWakeDelay = 2;

    isa::Program p;
    p.bundle().saPop(0).saPop(1).vuOp(0).vuOp(1);
    p.bundle().vuOp(0).vuOp(1).setpm(0b11, FuType::Vu,
                                     PowerMode::Off);
    p.bundle().saPop(0).saPop(1).nop(6);
    p.bundle().setpm(0b11, FuType::Vu, PowerMode::On);
    p.bundle().saPop(0).saPop(1).vuOp(0).vuOp(1);
    p.bundle().vuOp(0).vuOp(1).setpm(0b11, FuType::Vu,
                                     PowerMode::Off);

    isa::VliwCore core(cfg);
    core.run(p);

    const char *names[] = {"I1", "I2", "I3", "I4", "I5", "I6"};
    TablePrinter t({"Instr", "Dispatch cycle", "Misc slot"});
    for (std::size_t i = 0; i < p.bundles().size(); ++i) {
        t.addRow({names[i],
                  std::to_string(core.bundleDispatch()[i]),
                  p.bundles()[i].misc.has_value()
                      ? p.bundles()[i].misc->toString()
                      : ""});
    }
    t.print(std::cout);

    std::cout << "Total cycles: " << core.totalCycles()
              << ", wake stalls: " << core.wakeStallCycles()
              << "\nVU0 gated intervals:";
    for (const auto &iv : core.vuTrace(0).gated)
        std::cout << " [" << iv.start << ", " << iv.end << ")";
    std::cout << "\nPaper: VUs gated for 10 cycles per 16-cycle "
                 "period, zero exposed stall\n\n";

    // Now the compiler does it automatically on a bigger kernel.
    compiler::KernelSpec spec;
    spec.tiles = 16;
    spec.popCycles = 100;
    spec.vuOpsPerTile = 2;
    arch::GatingParams params;
    auto result = compiler::compileKernel(spec, cfg, params);

    isa::VliwCore gated(cfg);
    gated.run(result.program);
    std::cout << "Compiler-instrumented kernel (16 tiles, 100-cycle "
                 "pops):\n  setpm inserted: "
              << result.instrumentation.setpmInserted
              << ", gated intervals: "
              << result.instrumentation.gatedIntervals
              << "\n  VU0 gated "
              << gated.vuTrace(0).gatedCycles() << " of "
              << gated.totalCycles()
              << " cycles, wake stalls: " << gated.wakeStallCycles()
              << "\n";
    return 0;
}
