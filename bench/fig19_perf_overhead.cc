/**
 * @file
 * Fig. 19: performance overhead of the gating designs relative to
 * NoPG. Paper bounds: Base up to 4.6%, HW under ~0.6% average, Full
 * under 0.44%.
 */

#include "bench/bench_util.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBench(argc, argv);
    using sim::Policy;
    bench::banner("Figure 19",
                  "performance overhead vs NoPG (NPU-D)");

    TablePrinter t(
        {"Workload", "ReGate-Base", "ReGate-HW", "ReGate-Full"});
    double worst_base = 0, worst_full = 0;
    auto axis = bench::workloadAxis(models::paperSuite());
    auto reports =
        bench::simulateAll(axis, {arch::NpuGeneration::D});
    std::size_t idx = 0;
    for (const auto &s : axis) {
        const auto &rep = bench::reportFor(
            reports, idx, s, arch::NpuGeneration::D);
        auto pct = [&](Policy p) {
            return TablePrinter::pct(rep.result(p).perfOverhead,
                                     3);
        };
        worst_base = std::max(
            worst_base, rep.result(Policy::Base).perfOverhead);
        worst_full = std::max(
            worst_full, rep.result(Policy::Full).perfOverhead);
        t.addRow({s->name, pct(Policy::Base),
                  pct(Policy::HW), pct(Policy::Full)});
    }
    t.print(std::cout);
    std::cout << "Worst case: Base "
              << TablePrinter::pct(worst_base, 2) << ", Full "
              << TablePrinter::pct(worst_full, 3)
              << " (paper: Base <= 4.6%, Full <= 0.44%)\n";
    return 0;
}
