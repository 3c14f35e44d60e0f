/**
 * @file
 * Table 3: power on/off delays and break-even times of each gated
 * unit, plus the derived per-event transition energies and the
 * hardware detection windows the policies use.
 */

#include "bench/bench_util.h"
#include "core/bet.h"
#include "energy/power_model.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBenchNoGrid(argc, argv);
    bench::banner("Table 3",
                  "power on/off delays and BETs (synthesized "
                  "prototype values)");

    const auto &cfg = arch::npuConfig(arch::NpuGeneration::D);
    energy::PowerModel power(cfg);
    arch::GatingParams params;

    TablePrinter t({"Unit", "On/Off Delay (cyc)", "BET (cyc)",
                    "HW window (cyc)", "Unit static (W)",
                    "Transition energy (nJ)"});
    for (auto u : {arch::GatedUnit::SaPe, arch::GatedUnit::SaFull,
                   arch::GatedUnit::Vu, arch::GatedUnit::Hbm,
                   arch::GatedUnit::Ici, arch::GatedUnit::SramSleep,
                   arch::GatedUnit::SramOff}) {
        double p = power.unitStaticPower(u);
        double e_tr = core::transitionEnergy(
            p, params.breakEven(u), params.onOffDelay(u),
            params.gatedLeakage(u), cfg.cycleTime());
        t.addRow({arch::gatedUnitName(u),
                  std::to_string(params.onOffDelay(u)),
                  std::to_string(params.breakEven(u)),
                  std::to_string(params.detectionWindow(u)),
                  TablePrinter::fmt(p, 4),
                  TablePrinter::fmt(e_tr * 1e9, 4)});
    }
    t.print(std::cout);
    std::cout << "Leakage in gated state: logic "
              << TablePrinter::pct(params.ratios().logicOff)
              << ", SRAM sleep "
              << TablePrinter::pct(params.ratios().sramSleep)
              << ", SRAM off "
              << TablePrinter::pct(params.ratios().sramOff, 2)
              << " of active static power (§6.1)\n";
    return 0;
}
