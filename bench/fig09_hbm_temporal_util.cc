/**
 * @file
 * Fig. 9: HBM temporal utilization per workload and generation.
 */

#include "bench/bench_util.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBench(argc, argv);
    bench::banner("Figure 9", "HBM temporal utilization");

    TablePrinter t({"Workload", "A", "B", "C", "D"});
    auto axis = bench::workloadAxis(bench::paperSuite());
    auto reports = bench::simulateAll(axis, bench::paperGenerations());
    std::size_t idx = 0;
    for (const auto &s : axis) {
        std::vector<std::string> cells = {s->name};
        for (auto gen : bench::paperGenerations()) {
            const auto &rep = bench::reportFor(reports, idx, s, gen);
            cells.push_back(TablePrinter::pct(rep.temporalUtil(arch::Component::Hbm), 1));
        }
        t.addRow(cells);
    }
    t.print(std::cout);
    std::cout << "Paper shape: ~100% for decode, 10-30% for prefill/training, low for diffusion\n";
    return 0;
}
