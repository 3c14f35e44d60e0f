/**
 * @file
 * Quickstart: simulate one ML workload on an NPU generation and
 * compare the power-gating designs.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <iostream>

#include "common/table.h"
#include "sim/report.h"

int
main()
{
    using namespace regate;
    using sim::Policy;

    // 1. Pick a scenario and a chip generation. The built-in rows
    //    cover the paper's whole Table 1 suite; a spec file
    //    (models/spec.h) describes any other scenario.
    auto scenario = models::builtinScenario("Llama3-70B-Decode");
    auto gen = arch::NpuGeneration::D;

    // 2. Simulate. This builds the per-chip operator graph, runs the
    //    compiler (fusion + tiling), executes the tile-level
    //    simulator, and evaluates all five designs on the same run.
    auto report = sim::simulateScenario(scenario, gen);

    std::cout << "Workload: " << scenario->name
              << " on " << report.config().name << " ("
              << report.setup.chips << " chips, batch "
              << report.setup.batch << ", "
              << report.setup.par.toString() << ")\n"
              << "Runtime: "
              << TablePrinter::fmt(report.seconds() * 1e3, 2)
              << " ms for " << TablePrinter::eng(report.units, 0)
              << " tokens\n\n";

    // 3. Compare the designs.
    TablePrinter t({"Design", "Energy/token (mJ)", "Saving",
                    "Avg power (W)", "Perf overhead"});
    for (auto p : sim::allPolicies()) {
        t.addRow({sim::policyName(p),
                  TablePrinter::fmt(
                      report.energyPerUnit(p) * 1e3, 2),
                  TablePrinter::pct(report.savingVsNoPg(p), 1),
                  TablePrinter::fmt(report.result(p).avgPowerW, 0),
                  TablePrinter::pct(report.result(p).perfOverhead,
                                    2)});
    }
    t.print(std::cout);

    // 4. Inspect where the time goes.
    std::cout << "\nComponent temporal utilization: ";
    for (auto c : arch::kAllComponents) {
        if (c == arch::Component::Other)
            continue;
        std::cout << arch::componentName(c) << "="
                  << TablePrinter::pct(report.temporalUtil(c), 0)
                  << " ";
    }
    std::cout << "\nSA spatial utilization: "
              << TablePrinter::pct(report.saSpatialUtil(), 0)
              << "\n";
    return 0;
}
