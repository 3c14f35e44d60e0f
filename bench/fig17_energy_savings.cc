/**
 * @file
 * Fig. 17: energy savings of ReGate-Base / ReGate-HW / ReGate-Full /
 * Ideal over NoPG per workload (NPU-D), with the per-component
 * breakdown of ReGate-Full's savings.
 *
 * Each case is reduced to the nine fractions its row prints
 * (bench::fig17Row) on the worker that simulated it (bench::mapGrid),
 * so a spec sweep of thousands of cases holds numbers, not executions
 * or formatted cells; the ordered loop formats them into the table
 * and the numbers are released before the table prints.
 */

#include "bench/bench_util.h"
#include "bench/figure_rows.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBench(argc, argv);
    bench::banner("Figure 17",
                  "energy savings vs NoPG (NPU-D, busy energy)");

    TablePrinter t({"Workload", "Base", "HW", "Full", "Ideal",
                    "Full:SA", "Full:VU", "Full:SRAM", "Full:ICI",
                    "Full:HBM"});
    auto axis = bench::workloadAxis(models::paperSuite());
    double sum_full = 0;
    {
        // One generation, so the rows are in axis order.
        auto rows = bench::mapGrid(
            sim::scenarioGrid(axis, {arch::NpuGeneration::D}),
            bench::fig17Row);
        for (std::size_t i = 0; i < axis.size(); ++i) {
            sum_full += rows[i][2];  // Full's saving
            std::vector<std::string> cells;
            cells.reserve(1 + rows[i].size());
            cells.push_back(axis[i]->name);
            for (double f : rows[i])
                cells.push_back(TablePrinter::pct(f, 1));
            t.addRow(std::move(cells));
        }
    }  // The rows go before the table prints.
    t.print(std::cout);
    std::cout << "Suite average (Full): "
              << TablePrinter::pct(sum_full / axis.size(), 1)
              << "  (paper: 8.5%-32.8%, average 15.5%)\n";
    return 0;
}
