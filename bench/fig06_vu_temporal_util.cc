/**
 * @file
 * Fig. 6: VU temporal utilization per workload and generation.
 */

#include "bench/bench_util.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBench(argc, argv);
    bench::banner("Figure 6", "VU temporal utilization");

    TablePrinter t({"Workload", "A", "B", "C", "D"});
    auto axis = bench::workloadAxis(models::paperSuite());
    auto reports = bench::simulateAll(axis, bench::paperGenerations());
    std::size_t idx = 0;
    for (const auto &s : axis) {
        std::vector<std::string> cells = {s->name};
        for (auto gen : bench::paperGenerations()) {
            const auto &rep = bench::reportFor(reports, idx, s, gen);
            cells.push_back(TablePrinter::pct(rep.temporalUtil(arch::Component::Vu), 1));
        }
        t.addRow(cells);
    }
    t.print(std::cout);
    std::cout << "Paper shape: below 60% everywhere -- VUs wait on SA/HBM/ICI (S3)\n";
    return 0;
}
