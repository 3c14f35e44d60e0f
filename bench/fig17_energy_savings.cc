/**
 * @file
 * Fig. 17: energy savings of ReGate-Base / ReGate-HW / ReGate-Full /
 * Ideal over NoPG per workload (NPU-D), with the per-component
 * breakdown of ReGate-Full's savings.
 */

#include "bench/bench_util.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBench(argc, argv);
    using arch::Component;
    using sim::Policy;
    bench::banner("Figure 17",
                  "energy savings vs NoPG (NPU-D, busy energy)");

    TablePrinter t({"Workload", "Base", "HW", "Full", "Ideal",
                    "Full:SA", "Full:VU", "Full:SRAM", "Full:ICI",
                    "Full:HBM"});
    double sum_full = 0;
    auto axis = bench::workloadAxis(bench::paperSuite());
    auto reports =
        bench::simulateAll(axis, {arch::NpuGeneration::D});
    std::size_t idx = 0;
    for (const auto &s : axis) {
        const auto &rep = bench::reportFor(
            reports, idx, s, arch::NpuGeneration::D);
        double nopg = rep.result(Policy::NoPG).energy.busyTotal();
        auto comp_saving = [&](Component c) {
            double saved =
                rep.result(Policy::NoPG).energy.staticJ[c] -
                rep.result(Policy::Full).energy.staticJ[c];
            return TablePrinter::pct(saved / nopg, 1);
        };
        sum_full += rep.savingVsNoPg(Policy::Full);
        t.addRow({s->name,
                  TablePrinter::pct(rep.savingVsNoPg(Policy::Base), 1),
                  TablePrinter::pct(rep.savingVsNoPg(Policy::HW), 1),
                  TablePrinter::pct(rep.savingVsNoPg(Policy::Full), 1),
                  TablePrinter::pct(rep.savingVsNoPg(Policy::Ideal),
                                    1),
                  comp_saving(Component::Sa),
                  comp_saving(Component::Vu),
                  comp_saving(Component::Sram),
                  comp_saving(Component::Ici),
                  comp_saving(Component::Hbm)});
    }
    t.print(std::cout);
    std::cout << "Suite average (Full): "
              << TablePrinter::pct(sum_full / axis.size(), 1)
              << "  (paper: 8.5%-32.8%, average 15.5%)\n";
    return 0;
}
