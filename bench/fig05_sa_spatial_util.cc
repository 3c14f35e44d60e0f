/**
 * @file
 * Fig. 5: SA spatial utilization -- achieved FLOPs over peak FLOPs during SA active time.
 */

#include "bench/bench_util.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBench(argc, argv);
    bench::banner("Figure 5", "SA spatial utilization (achieved/peak FLOPs while active)");

    TablePrinter t({"Workload", "A", "B", "C", "D"});
    auto axis = bench::workloadAxis(bench::paperSuite());
    auto reports = bench::simulateAll(axis, bench::paperGenerations());
    std::size_t idx = 0;
    for (const auto &s : axis) {
        std::vector<std::string> cells = {s->name};
        for (auto gen : bench::paperGenerations()) {
            const auto &rep = bench::reportFor(reports, idx, s, gen);
            cells.push_back(TablePrinter::pct(rep.saSpatialUtil(), 1));
        }
        t.addRow(cells);
    }
    t.print(std::cout);
    std::cout << "Paper shape: prefill ~90%+, decode/DLRM low, diffusion mid (head sizes < SA width)\n";
    return 0;
}
