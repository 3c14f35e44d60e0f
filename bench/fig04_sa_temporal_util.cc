/**
 * @file
 * Fig. 4: SA temporal utilization (active cycles / total cycles) per workload and generation.
 */

#include "bench/bench_util.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBench(argc, argv);
    bench::banner("Figure 4", "SA temporal utilization");

    TablePrinter t({"Workload", "A", "B", "C", "D"});
    auto axis = bench::workloadAxis(models::paperSuite());
    auto reports = bench::simulateAll(axis, bench::paperGenerations());
    std::size_t idx = 0;
    for (const auto &s : axis) {
        std::vector<std::string> cells = {s->name};
        for (auto gen : bench::paperGenerations()) {
            const auto &rep = bench::reportFor(reports, idx, s, gen);
            cells.push_back(TablePrinter::pct(rep.temporalUtil(arch::Component::Sa), 1));
        }
        t.addRow(cells);
    }
    t.print(std::cout);
    std::cout << "Paper shape: high for training/prefill/diffusion, ~0 for DLRM and small-batch decode (S3)\n";
    return 0;
}
