/**
 * @file
 * Fig. 3: normalized energy breakdown per workload and generation:
 * the idle portion plus static/dynamic energy per component. The
 * paper's headline bands: idle 17%-32% of total; static 30%-72% of
 * busy energy.
 */

#include "bench/bench_util.h"
#include "bench/figure_rows.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBench(argc, argv);
    bench::banner("Figure 3",
                  "energy consumption breakdown (NoPG, % of total)");

    TablePrinter t({"Workload", "Gen", "Idle", "Dyn SA", "Sta SA",
                    "Dyn VU", "Sta VU", "Dyn SRAM", "Sta SRAM",
                    "Dyn ICI", "Sta ICI", "Dyn HBM", "Sta HBM",
                    "Dyn Oth", "Sta Oth", "StaticShareBusy"});

    auto axis = bench::workloadAxis(models::paperSuite());
    auto reports = bench::simulateAll(axis, bench::paperGenerations());
    std::size_t idx = 0;
    for (const auto &s : axis) {
        for (auto gen : bench::paperGenerations()) {
            std::vector<std::string> cells = {s->name,
                                              arch::generationName(gen)};
            for (double v :
                 bench::fig03Row(bench::reportFor(reports, idx, s, gen)))
                cells.push_back(TablePrinter::pct(v, 1));
            t.addRow(std::move(cells));
        }
        t.addSeparator();
    }
    t.print(std::cout);
    std::cout << "Paper bands: Idle 17-32% of total; busy static "
                 "share 30-72% (§3)\n";
    return 0;
}
