/**
 * @file
 * Fig. 17: energy savings of ReGate-Base / ReGate-HW / ReGate-Full /
 * Ideal over NoPG per workload (NPU-D), with the per-component
 * breakdown of ReGate-Full's savings.
 *
 * Each case is reduced to its printed row on the worker that
 * simulated it (bench::mapGrid), so a spec sweep of thousands of
 * cases holds rows, not executions.
 */

#include "bench/bench_util.h"

namespace {

/** What the figure prints of one case. */
struct Row
{
    regate::bench::ScenarioPtr scenario;  ///< For reportFor's check.
    regate::arch::NpuGeneration gen{};
    std::vector<std::string> cells;
    double fullSaving = 0;  ///< Summed in axis order for the average.
};

}  // namespace

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
    auto axis = bench::workloadAxis(bench::paperSuite());
    auto rows = bench::mapGrid(
        sim::scenarioGrid(axis, {arch::NpuGeneration::D}),
        [](const sim::WorkloadReport &rep) {
            double nopg = rep.result(Policy::NoPG).energy.busyTotal();
            auto comp_saving = [&](Component c) {
                double saved =
                    rep.result(Policy::NoPG).energy.staticJ[c] -
                    rep.result(Policy::Full).energy.staticJ[c];
                return TablePrinter::pct(saved / nopg, 1);
            };
            double full = rep.savingVsNoPg(Policy::Full);
            return Row{
                rep.scenario,
                rep.gen,
                {rep.scenario->name,
                 TablePrinter::pct(rep.savingVsNoPg(Policy::Base), 1),
                 TablePrinter::pct(rep.savingVsNoPg(Policy::HW), 1),
                 TablePrinter::pct(full, 1),
                 TablePrinter::pct(rep.savingVsNoPg(Policy::Ideal), 1),
                 comp_saving(Component::Sa),
                 comp_saving(Component::Vu),
                 comp_saving(Component::Sram),
                 comp_saving(Component::Ici),
                 comp_saving(Component::Hbm)},
                full};
        });
    double sum_full = 0;
    std::size_t idx = 0;
    for (const auto &s : axis) {
        Row &row = bench::reportFor(rows, idx, s, arch::NpuGeneration::D);
        sum_full += row.fullSaving;
        t.addRow(std::move(row.cells));
    }
    t.print(std::cout);
    std::cout << "Suite average (Full): "
              << TablePrinter::pct(sum_full / axis.size(), 1)
              << "  (paper: 8.5%-32.8%, average 15.5%)\n";
    return 0;
}
