/**
 * @file
 * Fig. 17: energy savings of ReGate-Base / ReGate-HW / ReGate-Full /
 * Ideal over NoPG per workload (NPU-D), with the per-component
 * breakdown of ReGate-Full's savings.
 *
 * Each case is reduced to the nine fractions its row prints on the
 * worker that simulated it (bench::mapGrid), so a spec sweep of
 * thousands of cases holds numbers, not executions or formatted
 * cells; the ordered loop formats them into the table and the numbers
 * are released before the table prints.
 */

#include <array>

#include "bench/bench_util.h"

namespace {

/** What the figure prints of one case. */
struct Row
{
    regate::bench::ScenarioPtr scenario;  ///< For reportFor's check.
    regate::arch::NpuGeneration gen{};
    /**
     * Base, HW, Full and Ideal savings vs NoPG, then Full's SA, VU,
     * SRAM, ICI and HBM savings, as fractions of NoPG's busy energy.
     */
    std::array<double, 9> fractions{};
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
    auto axis = bench::workloadAxis(models::paperSuite());
    double sum_full = 0;
    {
        auto rows = bench::mapGrid(
            sim::scenarioGrid(axis, {arch::NpuGeneration::D}),
            [](const sim::WorkloadReport &rep) {
                Row row{rep.scenario, rep.gen, {}};
                std::size_t i = 0;
                for (auto p : {Policy::Base, Policy::HW, Policy::Full,
                               Policy::Ideal})
                    row.fractions[i++] = rep.savingVsNoPg(p);
                const auto &nopg = rep.result(Policy::NoPG).energy;
                const auto &full = rep.result(Policy::Full).energy;
                double busy = nopg.busyTotal();
                for (auto c : {Component::Sa, Component::Vu,
                               Component::Sram, Component::Ici,
                               Component::Hbm})
                    row.fractions[i++] =
                        (nopg.staticJ[c] - full.staticJ[c]) / busy;
                return row;
            });
        std::size_t idx = 0;
        for (const auto &s : axis) {
            const Row &row =
                bench::reportFor(rows, idx, s, arch::NpuGeneration::D);
            sum_full += row.fractions[2];
            std::vector<std::string> cells;
            cells.reserve(1 + row.fractions.size());
            cells.push_back(s->name);
            for (double f : row.fractions)
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
