/**
 * @file
 * Fig. 18: average and peak per-chip power per workload and policy.
 * Peak power is the average power of the most power-hungry operator,
 * exactly as the paper measures it.
 */

#include "bench/bench_util.h"
#include "bench/figure_rows.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBench(argc, argv);
    bench::banner("Figure 18",
                  "average / peak power per chip (W, NPU-D)");

    TablePrinter t({"Workload", "NoPG avg", "Base avg", "HW avg",
                    "Full avg", "Ideal avg", "NoPG peak",
                    "Full peak"});
    auto axis = bench::workloadAxis(models::paperSuite());
    auto reports =
        bench::simulateAll(axis, {arch::NpuGeneration::D});
    std::size_t idx = 0;
    // Cooling-cost estimate (§6.3): $7 per chip-watt of peak power.
    double saved = 0;
    for (const auto &s : axis) {
        auto row = bench::fig18Row(
            bench::reportFor(reports, idx, s, arch::NpuGeneration::D));
        std::vector<std::string> cells = {s->name};
        for (double w : row)
            cells.push_back(TablePrinter::fmt(w, 0));
        t.addRow(std::move(cells));
        saved += row[5] - row[6];  // NoPG peak - Full peak
    }
    t.print(std::cout);

    saved /= reports.size();
    std::cout << "Average peak-power reduction: "
              << TablePrinter::fmt(saved, 1) << " W/chip -> cooling "
              << "capex saving ~$" << TablePrinter::fmt(7 * saved, 0)
              << "/chip at $7/chip-watt (paper: 31 W, $217)\n";
    return 0;
}
