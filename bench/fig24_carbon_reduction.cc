/**
 * @file
 * Fig. 24: operational carbon reduction of the gating designs. The
 * reductions exceed the busy-energy savings because idle chips are
 * almost entirely static power, which ReGate gates away.
 */

#include "bench/bench_util.h"
#include "carbon/carbon_model.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBench(argc, argv);
    using sim::Policy;
    bench::banner("Figure 24",
                  "operational carbon reduction (0.0624 kgCO2e/kWh, "
                  "60% utilization, PUE 1.1)");

    TablePrinter t({"Workload", "Base", "HW", "Full", "Ideal",
                    "Busy-energy saving (Full)"});
    auto axis = bench::workloadAxis(bench::sensitivityWorkloads());
    auto reports =
        bench::simulateAll(axis, {arch::NpuGeneration::D});
    std::size_t idx = 0;
    for (const auto &s : axis) {
        const auto &rep = bench::reportFor(
            reports, idx, s, arch::NpuGeneration::D);
        auto red = [&](Policy p) {
            return TablePrinter::pct(
                carbon::operationalCarbonReduction(rep, p), 1);
        };
        t.addRow({s->name, red(Policy::Base),
                  red(Policy::HW), red(Policy::Full),
                  red(Policy::Ideal),
                  TablePrinter::pct(
                      rep.savingVsNoPg(Policy::Full), 1)});
    }
    t.print(std::cout);
    std::cout << "Paper: 31.1%-62.9% operational carbon reduction "
                 "with ReGate-Full (§6.6)\n";
    return 0;
}
