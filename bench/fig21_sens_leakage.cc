/**
 * @file
 * Fig. 21: sensitivity of the energy savings to the gated-state
 * leakage ratios (logic off / SRAM sleep / SRAM off as fractions of
 * active static power).
 */

#include "bench/bench_util.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBench(argc, argv);
    using sim::Policy;
    bench::banner("Figure 21",
                  "energy savings vs gated-state leakage ratios "
                  "(NPU-D)");

    const std::vector<std::array<double, 3>> settings = {
        {0.03, 0.25, 0.002}, {0.1, 0.3, 0.01}, {0.2, 0.4, 0.1},
        {0.4, 0.5, 0.25},    {0.6, 0.8, 0.4},
    };

    // (workload x leakage setting) grid with per-case gating params;
    // fanned out on the shared sweep pool, results in grid order.
    auto axis = bench::workloadAxis(bench::sensitivityWorkloads());
    std::vector<sim::SweepCase> grid;
    for (const auto &sc : axis) {
        for (const auto &s : settings) {
            arch::LeakageRatios r;
            r.logicOff = s[0];
            r.sramSleep = s[1];
            r.sramOff = s[2];
            grid.push_back(sim::scenarioCase(sc, arch::NpuGeneration::D,
                                             arch::GatingParams(r)));
        }
    }
    auto reports = bench::runGrid(grid);

    std::size_t idx = 0;
    for (const auto &sc : axis) {
        std::cout << "\n-- " << sc->name << " --\n";
        TablePrinter t({"LogicOff/SramSleep/SramOff", "Base", "HW",
                        "Full"});
        for (const auto &s : settings) {
            const auto &rep = reports.at(idx++);
            t.addRow({TablePrinter::fmt(s[0], 2) + "/" +
                          TablePrinter::fmt(s[1], 2) + "/" +
                          TablePrinter::fmt(s[2], 3),
                      TablePrinter::pct(
                          rep.run().savingVsNoPg(Policy::Base), 1),
                      TablePrinter::pct(
                          rep.run().savingVsNoPg(Policy::HW), 1),
                      TablePrinter::pct(
                          rep.run().savingVsNoPg(Policy::Full), 1)});
        }
        t.print(std::cout);
    }
    std::cout << "\nPaper: savings shrink with leakier gated states, "
                 "but ReGate-Full still saves 4.6%-16.4% at the "
                 "worst setting (§6.5)\n";
    return 0;
}
