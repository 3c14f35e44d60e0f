/**
 * @file
 * NPU design-space exploration: build hypothetical chip
 * configurations (bigger arrays, more SRAM, faster HBM) and measure
 * how much of their static power ReGate recovers on a mixed workload
 * — the §6.5 "future NPU generations" argument as a what-if tool.
 */

#include <iostream>

#include "common/table.h"
#include "common/units.h"
#include "compiler/compiler.h"
#include "energy/power_model.h"
#include "models/registry.h"
#include "sim/engine.h"

int
main()
{
    using namespace regate;
    using sim::Policy;
    using namespace regate::units;

    // Start from NPU-D and grow the units the way NPU-E does.
    std::vector<arch::NpuConfig> designs;
    designs.push_back(arch::npuConfig(arch::NpuGeneration::D));

    arch::NpuConfig wide = designs[0];
    wide.name = "NPU-D+wideSA";
    wide.saWidth = 256;
    wide.numSa = 4;  // Same peak MACs, fewer/larger arrays.
    designs.push_back(wide);

    arch::NpuConfig fat = designs[0];
    fat.name = "NPU-D+2xSRAM";
    fat.sramBytes = MiB(256);
    designs.push_back(fat);

    arch::NpuConfig future = arch::npuConfig(arch::NpuGeneration::E);
    designs.push_back(future);

    const auto &scenario =
        models::builtinScenario("Llama3.1-405B-Decode");
    auto setup = models::scenarioSetup(*scenario);

    std::cout << "Design explorer: " << scenario->name << ", "
              << setup.chips << " chips\n\n";

    TablePrinter t({"Design", "Static (W)", "SA spatial util",
                    "Saving (Full)", "J/run/chip (Full)"});
    for (const auto &cfg : designs) {
        cfg.validate();
        auto graph = models::buildScenarioGraph(*scenario, setup);
        auto compiled = compiler::compileGraph(graph, cfg);
        sim::Engine engine(cfg);
        auto run = engine.run(compiled.graph, setup.chips);
        energy::PowerModel power(cfg);

        t.addRow({cfg.name,
                  TablePrinter::fmt(power.totalStaticPower(), 0),
                  TablePrinter::pct(run.saSpatialUtil(), 1),
                  TablePrinter::pct(run.savingVsNoPg(Policy::Full),
                                    1),
                  TablePrinter::fmt(
                      run.result(Policy::Full).energy.busyTotal(),
                      1)});
    }
    t.print(std::cout);

    std::cout << "\nReading: larger units leak more and are harder "
                 "to fill, so the fraction of energy ReGate recovers "
                 "grows with each 'future' design -- the paper's "
                 "§6.5 conclusion.\n";
    return 0;
}
