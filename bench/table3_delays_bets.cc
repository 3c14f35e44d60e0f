/**
 * @file
 * Table 3: power on/off delays and break-even times of each gated
 * unit, plus the derived per-event transition energies and the
 * hardware detection windows the policies use.
 */

#include "bench/bench_util.h"
#include "bench/figure_rows.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBenchNoGrid(argc, argv);
    bench::banner("Table 3",
                  "power on/off delays and BETs (synthesized "
                  "prototype values)");

    TablePrinter t({"Unit", "On/Off Delay (cyc)", "BET (cyc)",
                    "HW window (cyc)", "Unit static (W)",
                    "Transition energy (nJ)"});
    for (auto u : bench::kTable3Units) {
        auto row = bench::table3Row(u);
        t.addRow({arch::gatedUnitName(u),
                  std::to_string(row.onOffDelay),
                  std::to_string(row.breakEven),
                  std::to_string(row.detectionWindow),
                  TablePrinter::fmt(row.staticW, 4),
                  TablePrinter::fmt(row.transitionJ * 1e9, 4)});
    }
    t.print(std::cout);
    const auto ratios = arch::GatingParams{}.ratios();
    std::cout << "Leakage in gated state: logic "
              << TablePrinter::pct(ratios.logicOff) << ", SRAM sleep "
              << TablePrinter::pct(ratios.sramSleep) << ", SRAM off "
              << TablePrinter::pct(ratios.sramOff, 2)
              << " of active static power (§6.1)\n";
    return 0;
}
