/**
 * @file
 * LLM serving planner: for a Llama deployment, search the
 * SLO-compliant pod configurations on every NPU generation and
 * report the energy per token with and without ReGate — the workflow
 * an infra team would run before picking hardware for an inference
 * fleet.
 */

#include <iostream>

#include "common/table.h"
#include "sim/slo.h"

int
main()
{
    using namespace regate;
    using sim::Policy;

    std::cout << "LLM serving planner: Llama3-70B, prefill + decode\n"
              << "SLO: 5x the NPU-D default-config latency (paper "
                 "§3)\n\n";

    for (auto name : {"Llama3-70B-Prefill", "Llama3-70B-Decode"}) {
        const auto &scenario = models::builtinScenario(name);
        std::cout << "== " << scenario->name
                  << " ==\n";
        TablePrinter t({"Gen", "Chips", "Batch", "SLO", "mJ/token "
                        "(NoPG)", "mJ/token (ReGate)", "Saving"});
        for (auto gen : arch::allGenerations()) {
            auto res = sim::findBestSetup(scenario, gen);
            double nopg = res.report.energyPerUnit(Policy::NoPG);
            double full = res.report.energyPerUnit(Policy::Full);
            t.addRow({arch::generationName(gen),
                      std::to_string(res.setup.chips),
                      std::to_string(res.setup.batch),
                      TablePrinter::fmt(res.sloRatio, 0) + "x",
                      TablePrinter::fmt(nopg * 1e3, 2),
                      TablePrinter::fmt(full * 1e3, 2),
                      TablePrinter::pct(1.0 - full / nopg, 1)});
        }
        t.print(std::cout);
        std::cout << "\n";
    }

    std::cout << "Reading: decode fleets benefit most from ReGate "
                 "(memory-bound, SA/SRAM idle); prefill fleets are "
                 "compute-bound and save less.\n";
    return 0;
}
