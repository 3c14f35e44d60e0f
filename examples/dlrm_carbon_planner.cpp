/**
 * @file
 * Carbon planner for a DLRM recommendation fleet: operational carbon
 * per million requests, the reduction from ReGate, and the optimal
 * hardware-refresh cadence with and without power gating (the §6.6
 * analysis as a tool).
 */

#include <iostream>

#include "carbon/lifespan.h"
#include "common/table.h"

int
main()
{
    using namespace regate;
    using sim::Policy;

    auto scenario = models::builtinScenario("DLRM-L");
    auto rep = sim::simulateScenario(scenario, arch::NpuGeneration::D);
    carbon::CarbonParams params;

    std::cout << "DLRM-L fleet: " << rep.setup.chips
              << " NPU-D chips, batch " << rep.setup.batch << "\n\n";

    TablePrinter t({"Design", "mgCO2e per M requests",
                    "Carbon reduction", "Idle power/chip (W)"});
    for (auto p : {Policy::NoPG, Policy::Base, Policy::Full,
                   Policy::Ideal}) {
        t.addRow({sim::policyName(p),
                  TablePrinter::eng(
                      carbon::operationalCarbonPerUnit(rep, p,
                                                       params) *
                          1e12,
                      3),
                  TablePrinter::pct(
                      carbon::operationalCarbonReduction(rep, p,
                                                         params),
                      1),
                  TablePrinter::fmt(rep.idlePowerW(p), 0)});
    }
    t.print(std::cout);

    double factor = carbon::annualEfficiencyFactor(scenario);
    auto nopg = carbon::analyzeLifespan(rep, Policy::NoPG, factor, 10,
                                        params);
    auto full = carbon::analyzeLifespan(rep, Policy::Full, factor, 10,
                                        params);

    std::cout << "\nHardware refresh planning (annual efficiency "
                 "factor "
              << TablePrinter::fmt(factor, 3) << "):\n"
              << "  Optimal lifespan without gating: "
              << nopg.optimalYears << " years\n"
              << "  Optimal lifespan with ReGate:    "
              << full.optimalYears << " years\n"
              << "ReGate shrinks the operational term, so chips stay "
                 "carbon-efficient longer before an upgrade pays "
                 "off.\n";
    return 0;
}
