/**
 * @file
 * Fig. 25: total carbon per work unit over a 10-year horizon as a
 * function of device lifespan, with and without power gating. The
 * optimum (lowest total) lifespan extends under ReGate because the
 * operational term shrinks.
 */

#include "bench/bench_util.h"
#include "carbon/lifespan.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBench(argc, argv);
    using sim::Policy;
    bench::banner("Figure 25",
                  "carbon per unit vs device lifespan (10-year "
                  "horizon)");

    auto axis = bench::workloadAxis(bench::sensitivityWorkloads());
    auto reports =
        bench::simulateAll(axis, {arch::NpuGeneration::D});
    std::size_t idx = 0;
    for (const auto &s : axis) {
        const auto &rep = bench::reportFor(
            reports, idx, s, arch::NpuGeneration::D);
        double factor = carbon::annualEfficiencyFactor(s);
        auto nopg = carbon::analyzeLifespan(rep, Policy::NoPG, factor);
        auto full = carbon::analyzeLifespan(rep, Policy::Full, factor);

        std::cout << "\n-- " << s->name
                  << " (annual efficiency factor "
                  << TablePrinter::fmt(factor, 3) << ") --\n";
        TablePrinter t({"Lifespan (yr)", "Embodied/unit",
                        "NoPG op/unit", "NoPG total",
                        "ReGate-Full total"});
        for (std::size_t i = 0; i < nopg.points.size(); ++i) {
            const auto &n = nopg.points[i];
            const auto &f = full.points[i];
            std::string label = std::to_string(n.lifespanYears);
            if (n.lifespanYears == nopg.optimalYears)
                label += " *NoPG";
            if (f.lifespanYears == full.optimalYears)
                label += " *Full";
            t.addRow({label,
                      TablePrinter::eng(n.embodiedPerUnit * 1e3, 3),
                      TablePrinter::eng(n.operationalPerUnit * 1e3,
                                        3),
                      TablePrinter::eng(n.totalPerUnit() * 1e3, 3),
                      TablePrinter::eng(f.totalPerUnit() * 1e3, 3)});
        }
        t.print(std::cout);
        std::cout << "Optimal lifespan: NoPG " << nopg.optimalYears
                  << " yr -> ReGate-Full " << full.optimalYears
                  << " yr (gCO2e per unit)\n";
    }
    std::cout << "\nPaper: optimal lifespan 4-8 yr without gating, "
                 "5-9 yr with ReGate (§6.6)\n";
    return 0;
}
