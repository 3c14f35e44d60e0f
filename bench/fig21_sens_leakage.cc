/**
 * @file
 * Fig. 21: sensitivity of the energy savings to the gated-state
 * leakage ratios (logic off / SRAM sleep / SRAM off as fractions of
 * active static power).
 */

#include "bench/bench_util.h"
#include "bench/figure_rows.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBench(argc, argv);
    bench::banner("Figure 21",
                  "energy savings vs gated-state leakage ratios "
                  "(NPU-D)");

    // (workload x leakage setting) grid with per-case gating params;
    // fanned out by the sweep runner, results in grid order.
    auto axis = bench::workloadAxis(bench::sensitivityWorkloads());
    std::vector<sim::SweepCase> grid;
    for (const auto &sc : axis) {
        for (const auto &r : bench::kFig21Settings)
            grid.push_back(sim::scenarioCase(sc, arch::NpuGeneration::D,
                                             arch::GatingParams(r)));
    }
    auto reports = bench::runGrid(grid);

    std::size_t idx = 0;
    for (const auto &sc : axis) {
        std::cout << "\n-- " << sc->name << " --\n";
        TablePrinter t({"LogicOff/SramSleep/SramOff", "Base", "HW",
                        "Full"});
        for (const auto &r : bench::kFig21Settings) {
            std::vector<std::string> cells = {
                TablePrinter::fmt(r.logicOff, 2) + "/" +
                TablePrinter::fmt(r.sramSleep, 2) + "/" +
                TablePrinter::fmt(r.sramOff, 3)};
            for (double v : bench::fig21Row(reports.at(idx++)))
                cells.push_back(TablePrinter::pct(v, 1));
            t.addRow(std::move(cells));
        }
        t.print(std::cout);
    }
    std::cout << "\nPaper: savings shrink with leakier gated states, "
                 "but ReGate-Full still saves 4.6%-16.4% at the "
                 "worst setting (§6.5)\n";
    return 0;
}
