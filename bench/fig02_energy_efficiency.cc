/**
 * @file
 * Fig. 2: energy efficiency (J/iter, J/token, J/request, J/image) of
 * every workload on NPU generations A..D, each at its most
 * energy-efficient SLO-compliant configuration; relaxed-SLO configs
 * are labeled like the paper's "2x" bar annotations.
 */

#include "bench/bench_util.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBench(argc, argv);
    bench::banner("Figure 2",
                  "energy efficiency across NPU generations "
                  "(NoPG, duty cycle 60%, PUE 1.1)");

    // SLO-search the whole (workload x generation) grid in parallel;
    // results come back in grid order, so printing stays grouped by
    // family exactly as the serial loop produced it. The axis is the
    // 17 paper workloads (already in family order), or the scenarios
    // of a `--spec` file.
    auto axis = bench::workloadAxis(models::paperSuite());
    auto grid = sim::scenarioGrid(axis, bench::paperGenerations());
    auto results = bench::searchGrid(grid);

    std::size_t idx = 0;
    bool failed = false;
    for (std::size_t i = 0; i < axis.size();) {
        auto family = models::scenarioFamilyLabel(*axis[i]);
        std::cout << "\n-- " << family << " --\n";
        TablePrinter t({"Workload", "Gen", "Chips", "SLO",
                        "J/unit", "Unit"});
        for (; i < axis.size() &&
               models::scenarioFamilyLabel(*axis[i]) == family;
             ++i) {
            const auto &s = axis[i];
            auto unit = models::workUnitName(models::scenarioWorkUnit(*s));
            for (auto gen : bench::paperGenerations()) {
                const auto &res = results.at(idx++);
                if (bench::searchFailed(res, *s, gen)) {
                    failed = true;
                    t.addRow({s->name, arch::generationName(gen), "-", "-",
                              "error", unit});
                    continue;
                }
                t.addRow({s->name,
                          arch::generationName(gen),
                          std::to_string(res.setup.chips),
                          TablePrinter::fmt(res.sloRatio, 0) + "x",
                          TablePrinter::eng(res.energyPerUnit, 3),
                          unit});
            }
            t.addSeparator();
        }
        t.print(std::cout);
    }
    return failed ? 1 : 0;
}
