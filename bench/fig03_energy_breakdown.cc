/**
 * @file
 * Fig. 3: normalized energy breakdown per workload and generation:
 * the idle portion plus static/dynamic energy per component. The
 * paper's headline bands: idle 17%-32% of total; static 30%-72% of
 * busy energy.
 */

#include "bench/bench_util.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBench(argc, argv);
    using arch::Component;
    bench::banner("Figure 3",
                  "energy consumption breakdown (NoPG, % of total)");

    TablePrinter t({"Workload", "Gen", "Idle", "Dyn SA", "Sta SA",
                    "Dyn VU", "Sta VU", "Dyn SRAM", "Sta SRAM",
                    "Dyn ICI", "Sta ICI", "Dyn HBM", "Sta HBM",
                    "Dyn Oth", "Sta Oth", "StaticShareBusy"});

    auto axis = bench::workloadAxis(bench::paperSuite());
    auto reports = bench::simulateAll(axis, bench::paperGenerations());
    std::size_t idx = 0;
    for (const auto &s : axis) {
        for (auto gen : bench::paperGenerations()) {
            const auto &rep =
                bench::reportFor(reports, idx, s, gen);
            const auto &e =
                rep.result(sim::Policy::NoPG).energy;
            double total = rep.podTotalEnergy(sim::Policy::NoPG) /
                           rep.setup.chips;
            double busy_scale =
                1.1 / total;  // PUE applied to busy shares too.
            auto pct = [&](double j) {
                return TablePrinter::pct(j * busy_scale, 1);
            };
            t.addRow({s->name, bench::genLabel(gen),
                      TablePrinter::pct(
                          rep.idleShare(sim::Policy::NoPG), 1),
                      pct(e.dynamicJ[Component::Sa]),
                      pct(e.staticJ[Component::Sa]),
                      pct(e.dynamicJ[Component::Vu]),
                      pct(e.staticJ[Component::Vu]),
                      pct(e.dynamicJ[Component::Sram]),
                      pct(e.staticJ[Component::Sram]),
                      pct(e.dynamicJ[Component::Ici]),
                      pct(e.staticJ[Component::Ici]),
                      pct(e.dynamicJ[Component::Hbm]),
                      pct(e.staticJ[Component::Hbm]),
                      pct(e.dynamicJ[Component::Other]),
                      pct(e.staticJ[Component::Other]),
                      TablePrinter::pct(e.staticShareBusy(), 1)});
        }
        t.addSeparator();
    }
    t.print(std::cout);
    std::cout << "Paper bands: Idle 17-32% of total; busy static "
                 "share 30-72% (§3)\n";
    return 0;
}
