/**
 * @file
 * Fig. 15: the setpm VU-gating example, executed instruction by
 * instruction on the VLIW core model; then the same pattern produced
 * automatically by the compiler's idleness + instrumentation passes
 * on a larger kernel.
 */

#include "bench/bench_util.h"
#include "bench/figure_rows.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBenchNoGrid(argc, argv);
    bench::banner("Figure 15",
                  "setpm power-gating timeline on the VLIW core");

    auto [cfg, p] = bench::fig15Program();
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
    auto result = bench::fig15Kernel(cfg, 16, 100);
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
