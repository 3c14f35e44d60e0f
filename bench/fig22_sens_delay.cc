/**
 * @file
 * Fig. 22: sensitivity of savings and performance overhead to the
 * power-gate/wake-up delays (1x .. 4x of Table 3, which also scales
 * the BETs).
 */

#include "bench/bench_util.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBench(argc, argv);
    using sim::Policy;
    bench::banner("Figure 22",
                  "energy/performance vs power-gate & wake-up delay "
                  "scaling (NPU-D)");

    const std::vector<double> scales = {1.0, 1.5, 2.0, 3.0, 4.0};

    // (workload x delay scale) grid with per-case gating params;
    // fanned out on the shared sweep pool, results in grid order.
    auto axis = bench::workloadAxis(bench::sensitivityWorkloads());
    std::vector<sim::SweepCase> grid;
    for (const auto &s : axis) {
        for (double scale : scales) {
            arch::GatingParams params;
            params.setDelayScale(scale);
            grid.push_back(
                sim::scenarioCase(s, arch::NpuGeneration::D, params));
        }
    }
    auto reports = bench::runGrid(grid);

    std::size_t idx = 0;
    for (const auto &s : axis) {
        std::cout << "\n-- " << s->name << " --\n";
        TablePrinter t({"Delay scale", "Base sav", "HW sav",
                        "Full sav", "Base ovh", "HW ovh",
                        "Full ovh"});
        for (double scale : scales) {
            const auto &rep = reports.at(idx++);
            auto sav = [&](Policy p) {
                return TablePrinter::pct(rep.savingVsNoPg(p), 1);
            };
            auto ovh = [&](Policy p) {
                return TablePrinter::pct(
                    rep.result(p).perfOverhead, 3);
            };
            t.addRow({TablePrinter::fmt(scale, 1) + "x",
                      sav(Policy::Base), sav(Policy::HW),
                      sav(Policy::Full), ovh(Policy::Base),
                      ovh(Policy::HW), ovh(Policy::Full)});
        }
        t.print(std::cout);
    }
    std::cout << "\nPaper: longer delays slightly reduce savings and "
                 "raise Base/HW overhead; Full's compiler knowledge "
                 "keeps overhead flat (§6.5)\n";
    return 0;
}
