/**
 * @file
 * What each figure prints, at full precision: one function per figure
 * that turns a report (or a constant table) into the numbers of its
 * row. The binaries only format these numbers, and
 * tests/golden_figures_test.cc pins the same numbers at `%.17g` on
 * downsized axes, so a figure and its golden cannot drift apart.
 *
 * It is a header because CMake makes an executable of every .cc file
 * in bench/, and its functions are inline, so each statically linked
 * binary keeps only what it calls.
 */

#ifndef REGATE_BENCH_FIGURE_ROWS_H
#define REGATE_BENCH_FIGURE_ROWS_H

#include <array>

#include "carbon/carbon_model.h"
#include "compiler/compiler.h"
#include "core/bet.h"
#include "energy/power_model.h"
#include "isa/vliw_core.h"
#include "sim/report.h"

namespace regate {
namespace bench {

/**
 * Fig. 3 of one report, as fractions of the NoPG total energy (the
 * PUE applies to the busy shares too): the idle share, then the
 * dynamic and the static share of SA, VU, SRAM, ICI, HBM and Other,
 * then the static share of the busy energy.
 */
inline std::array<double, 14>
fig03Row(const sim::WorkloadReport &rep)
{
    using arch::Component;
    const auto &e = rep.result(sim::Policy::NoPG).energy;
    const double total =
        rep.podTotalEnergy(sim::Policy::NoPG) / rep.setup.chips;
    const double pue = sim::FleetParams{}.pue;
    std::array<double, 14> row{};
    std::size_t i = 0;
    row[i++] = rep.idleShare(sim::Policy::NoPG);
    for (auto c : {Component::Sa, Component::Vu, Component::Sram,
                   Component::Ici, Component::Hbm, Component::Other}) {
        row[i++] = e.dynamicJ[c] * pue / total;
        row[i++] = e.staticJ[c] * pue / total;
    }
    row[i] = e.staticShareBusy();
    return row;
}

/**
 * The utilization figures' metric of one report: SA temporal (Fig. 4),
 * SA spatial (Fig. 5), VU, ICI and HBM temporal utilization (Figs. 6,
 * 8 and 9).
 */
inline double
fig04Util(const sim::WorkloadReport &rep)
{
    return rep.temporalUtil(arch::Component::Sa);
}

inline double
fig05Util(const sim::WorkloadReport &rep)
{
    return rep.saSpatialUtil();
}

inline double
fig06Util(const sim::WorkloadReport &rep)
{
    return rep.temporalUtil(arch::Component::Vu);
}

inline double
fig08Util(const sim::WorkloadReport &rep)
{
    return rep.temporalUtil(arch::Component::Ici);
}

inline double
fig09Util(const sim::WorkloadReport &rep)
{
    return rep.temporalUtil(arch::Component::Hbm);
}

/** Fig. 15's first half: the paper's setpm program and its core. */
struct SetpmExample
{
    isa::VliwCoreConfig cfg;  ///< 2 SAs, 2 VUs, 2-cycle VU on/off.
    isa::Program program;     ///< Six bundles of 8-cycle pops.
};

inline SetpmExample
fig15Program()
{
    using isa::FuType;
    using isa::PowerMode;
    SetpmExample ex;
    ex.cfg.numSa = 2;
    ex.cfg.numVu = 2;
    ex.cfg.vuWakeDelay = 2;

    auto &p = ex.program;
    p.bundle().saPop(0).saPop(1).vuOp(0).vuOp(1);
    p.bundle().vuOp(0).vuOp(1).setpm(0b11, FuType::Vu,
                                     PowerMode::Off);
    p.bundle().saPop(0).saPop(1).nop(6);
    p.bundle().setpm(0b11, FuType::Vu, PowerMode::On);
    p.bundle().saPop(0).saPop(1).vuOp(0).vuOp(1);
    p.bundle().vuOp(0).vuOp(1).setpm(0b11, FuType::Vu,
                                     PowerMode::Off);
    return ex;
}

/**
 * Fig. 15's second half: a kernel of @p tiles pops of @p pop_cycles
 * per SA, two VU ops per tile, instrumented with setpm by the
 * compiler for the core @p cfg.
 */
inline compiler::KernelCompileResult
fig15Kernel(const isa::VliwCoreConfig &cfg, int tiles, Cycles pop_cycles)
{
    compiler::KernelSpec spec;
    spec.tiles = tiles;
    spec.popCycles = pop_cycles;
    spec.vuOpsPerTile = 2;
    return compiler::compileKernel(spec, cfg, arch::GatingParams{});
}

/**
 * Fig. 17 of one report: the Base, HW, Full and Ideal savings vs
 * NoPG, then Full's SA, VU, SRAM, ICI and HBM static savings, as
 * fractions of NoPG's busy energy.
 */
inline std::array<double, 9>
fig17Row(const sim::WorkloadReport &rep)
{
    using arch::Component;
    using sim::Policy;
    std::array<double, 9> row{};
    std::size_t i = 0;
    for (auto p : {Policy::Base, Policy::HW, Policy::Full, Policy::Ideal})
        row[i++] = rep.savingVsNoPg(p);
    const auto &nopg = rep.result(Policy::NoPG).energy;
    const auto &full = rep.result(Policy::Full).energy;
    double busy = nopg.busyTotal();
    for (auto c : {Component::Sa, Component::Vu, Component::Sram,
                   Component::Ici, Component::Hbm})
        row[i++] = (nopg.staticJ[c] - full.staticJ[c]) / busy;
    return row;
}

/**
 * Fig. 18 of one report, per chip in W: the average power of NoPG,
 * Base, HW, Full and Ideal, then the peak power of NoPG and Full.
 */
inline std::array<double, 7>
fig18Row(const sim::WorkloadReport &rep)
{
    using sim::Policy;
    std::array<double, 7> row{};
    std::size_t i = 0;
    for (auto p : {Policy::NoPG, Policy::Base, Policy::HW, Policy::Full,
                   Policy::Ideal})
        row[i++] = rep.result(p).avgPowerW;
    row[i++] = rep.result(Policy::NoPG).peakPowerW;
    row[i] = rep.result(Policy::Full).peakPowerW;
    return row;
}

/** Fig. 21's gated-state leakage settings, from default to worst. */
inline constexpr std::array<arch::LeakageRatios, 5> kFig21Settings{{
    {0.03, 0.25, 0.002},
    {0.1, 0.3, 0.01},
    {0.2, 0.4, 0.1},
    {0.4, 0.5, 0.25},
    {0.6, 0.8, 0.4},
}};

/** Fig. 21 of one report: the Base, HW and Full savings vs NoPG. */
inline std::array<double, 3>
fig21Row(const sim::WorkloadReport &rep)
{
    using sim::Policy;
    return {rep.savingVsNoPg(Policy::Base), rep.savingVsNoPg(Policy::HW),
            rep.savingVsNoPg(Policy::Full)};
}

/**
 * Fig. 24 of one report: the operational carbon reduction of Base,
 * HW, Full and Ideal, then Full's busy-energy saving vs NoPG.
 */
inline std::array<double, 5>
fig24Row(const sim::WorkloadReport &rep)
{
    using sim::Policy;
    std::array<double, 5> row{};
    std::size_t i = 0;
    for (auto p : {Policy::Base, Policy::HW, Policy::Full, Policy::Ideal})
        row[i++] = carbon::operationalCarbonReduction(rep, p);
    row[i] = rep.savingVsNoPg(Policy::Full);
    return row;
}

/** Table 3's units, in the order it prints them. */
inline constexpr arch::GatedUnit kTable3Units[] = {
    arch::GatedUnit::SaPe, arch::GatedUnit::SaFull, arch::GatedUnit::Vu,
    arch::GatedUnit::Hbm,  arch::GatedUnit::Ici,
    arch::GatedUnit::SramSleep, arch::GatedUnit::SramOff};

/** Table 3 of one gated unit. */
struct Table3Row
{
    Cycles onOffDelay = 0;
    Cycles breakEven = 0;
    Cycles detectionWindow = 0;
    double staticW = 0;      ///< The unit's static power.
    double transitionJ = 0;  ///< Energy of one off/on transition.
};

/** Table 3's row of @p u on NPU-D under the default gating params. */
inline Table3Row
table3Row(arch::GatedUnit u)
{
    const auto &cfg = arch::npuConfig(arch::NpuGeneration::D);
    const arch::GatingParams params;
    const double w = energy::PowerModel(cfg).unitStaticPower(u);
    return {params.onOffDelay(u), params.breakEven(u),
            params.detectionWindow(u), w,
            core::transitionEnergy(w, params.breakEven(u),
                                   params.onOffDelay(u),
                                   params.gatedLeakage(u),
                                   cfg.cycleTime())};
}

}  // namespace bench
}  // namespace regate

#endif  // REGATE_BENCH_FIGURE_ROWS_H
