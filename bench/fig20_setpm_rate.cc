/**
 * @file
 * Fig. 20: executed setpm instructions per 1,000 cycles under
 * ReGate-Full. The VU rate is bounded by 1000/BET ~ 31; the SRAM
 * rate is negligible because capacity changes only at operator
 * boundaries.
 */

#include "bench/bench_util.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBench(argc, argv);
    using sim::Policy;
    bench::banner("Figure 20",
                  "setpm instructions per 1K cycles (ReGate-Full, "
                  "NPU-D)");

    TablePrinter t({"Workload", "VU setpm/1Kcyc", "SRAM setpm/1Kcyc"});
    auto axis = bench::workloadAxis(models::paperSuite());
    auto reports =
        bench::simulateAll(axis, {arch::NpuGeneration::D});
    std::size_t idx = 0;
    for (const auto &s : axis) {
        const auto &rep = bench::reportFor(
            reports, idx, s, arch::NpuGeneration::D);
        const auto &full = rep.result(Policy::Full);
        double cycles = static_cast<double>(rep.cycles());
        // Each gated interval needs an off and an on setpm.
        double vu_rate = 2.0 *
                         static_cast<double>(full.vuGateEvents) /
                         cycles * 1000.0;
        double sram_rate =
            2.0 * static_cast<double>(rep.execution().sramSetpmPairs) /
            cycles * 1000.0;
        t.addRow({s->name,
                  TablePrinter::fmt(vu_rate, 3),
                  TablePrinter::fmt(sram_rate, 4)});
    }
    t.print(std::cout);
    std::cout << "Bound: < 1000 / BET(VU) = "
              << TablePrinter::fmt(
                     1000.0 / arch::GatingParams().breakEven(
                                  arch::GatedUnit::Vu),
                     1)
              << " (paper measures < 20 on average)\n";
    return 0;
}
