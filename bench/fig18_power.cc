/**
 * @file
 * Fig. 18: average and peak per-chip power per workload and policy.
 * Peak power is the average power of the most power-hungry operator,
 * exactly as the paper measures it.
 */

#include "bench/bench_util.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBench(argc, argv);
    using sim::Policy;
    bench::banner("Figure 18",
                  "average / peak power per chip (W, NPU-D)");

    TablePrinter t({"Workload", "NoPG avg", "Base avg", "HW avg",
                    "Full avg", "Ideal avg", "NoPG peak",
                    "Full peak"});
    auto axis = bench::workloadAxis(bench::paperSuite());
    auto reports =
        bench::simulateAll(axis, {arch::NpuGeneration::D});
    std::size_t idx = 0;
    for (const auto &s : axis) {
        const auto &rep = bench::reportFor(
            reports, idx, s, arch::NpuGeneration::D);
        auto avg = [&](Policy p) {
            return TablePrinter::fmt(rep.result(p).avgPowerW, 0);
        };
        t.addRow({s->name, avg(Policy::NoPG),
                  avg(Policy::Base), avg(Policy::HW),
                  avg(Policy::Full), avg(Policy::Ideal),
                  TablePrinter::fmt(
                      rep.result(Policy::NoPG).peakPowerW, 0),
                  TablePrinter::fmt(
                      rep.result(Policy::Full).peakPowerW, 0)});
    }
    t.print(std::cout);

    // Cooling-cost estimate (§6.3): $7 per chip-watt of peak power.
    // Reuses the reports above — the old second simulate loop was a
    // redundant warm re-run of identical cases.
    double saved = 0;
    for (const auto &rep : reports) {
        saved += rep.result(Policy::NoPG).peakPowerW -
                 rep.result(Policy::Full).peakPowerW;
    }
    saved /= reports.size();
    std::cout << "Average peak-power reduction: "
              << TablePrinter::fmt(saved, 1) << " W/chip -> cooling "
              << "capex saving ~$" << TablePrinter::fmt(7 * saved, 0)
              << "/chip at $7/chip-watt (paper: 31 W, $217)\n";
    return 0;
}
