/**
 * @file
 * Golden-figure regression harness: renders downsized fig03 / fig21 /
 * table3 configurations and the A..E area/power model to canonical CSV
 * at full double precision and byte-compares against checked-in golden
 * files, so cache or parallelism changes can never silently drift the
 * paper's reproduced numbers — any change in any digit of any cell
 * fails here.
 *
 * The goldens live in tests/golden/ (REGATE_GOLDEN_DIR, injected by
 * CMake). To regenerate after an *intentional* model change:
 *
 *     REGATE_UPDATE_GOLDEN=1 ctest --test-dir build -R golden
 *
 * then review the diff like any other code change.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "carbon/carbon_model.h"
#include "compiler/compiler.h"
#include "core/bet.h"
#include "energy/power_model.h"
#include "isa/vliw_core.h"
#include "sim/report.h"

#ifndef REGATE_GOLDEN_DIR
#error "REGATE_GOLDEN_DIR must be defined (see CMakeLists.txt)"
#endif

namespace regate {
namespace sim {
namespace {

using arch::Component;
using models::builtinScenario;

/**
 * Round-trip double formatting (%.17g reproduces every bit of an
 * IEEE-754 double), locale-independent: a 1-ulp drift in any
 * reproduced number changes the rendered bytes.
 */
std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * Downsized Fig. 3 (energy breakdown): four workloads spanning every
 * family trait (prefill, decode, DLRM, diffusion) on NPU-D. Raw
 * fractions, not the table's rounded percentages.
 */
std::string
renderFig03Small()
{
    std::ostringstream out;
    out << "workload,idle_share,dyn_sa,sta_sa,dyn_vu,sta_vu,"
           "dyn_sram,sta_sram,dyn_ici,sta_ici,dyn_hbm,sta_hbm,"
           "dyn_oth,sta_oth,static_share_busy\n";
    for (auto name : {"Llama3-8B-Prefill", "Llama3-8B-Decode", "DLRM-S",
                      "DiT-XL"}) {
        auto rep =
            simulateScenario(builtinScenario(name), arch::NpuGeneration::D);
        const auto &e = rep.result(Policy::NoPG).energy;
        double total =
            rep.podTotalEnergy(Policy::NoPG) / rep.setup.chips;
        const double pue = FleetParams{}.pue;
        out << name << ','
            << num(rep.idleShare(Policy::NoPG));
        for (auto c : {Component::Sa, Component::Vu, Component::Sram,
                       Component::Ici, Component::Hbm,
                       Component::Other}) {
            out << ',' << num(e.dynamicJ[c] * pue / total) << ','
                << num(e.staticJ[c] * pue / total);
        }
        out << ',' << num(e.staticShareBusy()) << '\n';
    }
    return out.str();
}

/**
 * Downsized Fig. 21 (leakage sensitivity): two workloads, three
 * leakage settings (default, middle, worst).
 */
std::string
renderFig21Small()
{
    const double settings[][3] = {
        {0.03, 0.25, 0.002}, {0.2, 0.4, 0.1}, {0.6, 0.8, 0.4}};
    std::ostringstream out;
    out << "workload,logic_off,sram_sleep,sram_off,"
           "sav_base,sav_hw,sav_full\n";
    for (auto name : {"DLRM-L", "DiT-XL"}) {
        for (const auto &s : settings) {
            arch::LeakageRatios r;
            r.logicOff = s[0];
            r.sramSleep = s[1];
            r.sramOff = s[2];
            auto rep = simulateScenario(builtinScenario(name),
                                        arch::NpuGeneration::D,
                                        arch::GatingParams(r));
            out << name << ',' << num(s[0]) << ','
                << num(s[1]) << ',' << num(s[2]) << ','
                << num(rep.savingVsNoPg(Policy::Base)) << ','
                << num(rep.savingVsNoPg(Policy::HW)) << ','
                << num(rep.savingVsNoPg(Policy::Full)) << '\n';
        }
    }
    return out.str();
}

/** Table 3 (delays/BETs/windows + derived energies), all units. */
std::string
renderTable3()
{
    const auto &cfg = arch::npuConfig(arch::NpuGeneration::D);
    energy::PowerModel power(cfg);
    arch::GatingParams params;

    std::ostringstream out;
    out << "unit,on_off_delay,bet,window,unit_static_w,"
           "transition_energy_j\n";
    for (auto u : {arch::GatedUnit::SaPe, arch::GatedUnit::SaFull,
                   arch::GatedUnit::Vu, arch::GatedUnit::Hbm,
                   arch::GatedUnit::Ici, arch::GatedUnit::SramSleep,
                   arch::GatedUnit::SramOff}) {
        double p = power.unitStaticPower(u);
        double e_tr = core::transitionEnergy(
            p, params.breakEven(u), params.onOffDelay(u),
            params.gatedLeakage(u), cfg.cycleTime());
        out << arch::gatedUnitName(u) << ','
            << params.onOffDelay(u) << ',' << params.breakEven(u)
            << ',' << params.detectionWindow(u) << ',' << num(p)
            << ',' << num(e_tr) << '\n';
    }
    return out.str();
}

/**
 * The area/power model of every generation A..E: each component's
 * area and static power, the gating overhead, the per-instance static
 * power of a PE, an SA, a VU and an SRAM segment, and the dynamic
 * energy of one unit of each WorkCounters field. This pins every
 * per-node constant (16, 7 and 4 nm) at full precision.
 */
std::string
renderPowerModel()
{
    std::ostringstream out;
    out << "gen,quantity,value\n";
    for (auto gen : arch::allGenerations()) {
        const auto &cfg = arch::npuConfig(gen);
        energy::PowerModel power(cfg);
        const auto &area = power.areaModel();
        const std::string g = arch::generationName(gen);
        auto row = [&](const std::string &what, double v) {
            out << g << ',' << what << ',' << num(v) << '\n';
        };
        for (auto c : arch::kAllComponents) {
            row("area_mm2_" + arch::componentName(c),
                area.baseline().mm2[c]);
            row("static_w_" + arch::componentName(c),
                power.staticPower(c));
        }
        row("gating_overhead_mm2", area.gatingOverheadMm2());
        row("pe_static_w", power.peStaticPower());
        row("sa_static_w", power.saStaticPower());
        row("vu_static_w", power.vuStaticPower());
        row("sram_segment_static_w", power.sramSegmentStaticPower());
        const std::pair<const char *, double energy::WorkCounters::*>
            fields[] = {{"macs", &energy::WorkCounters::macs},
                        {"vu_ops", &energy::WorkCounters::vuOps},
                        {"sram_bytes", &energy::WorkCounters::sramBytes},
                        {"hbm_bytes", &energy::WorkCounters::hbmBytes},
                        {"ici_bytes", &energy::WorkCounters::iciBytes}};
        for (const auto &[name, field] : fields) {
            energy::WorkCounters work;
            work.*field = 1;
            auto e = power.dynamicEnergy(work);
            for (auto c : arch::kAllComponents)
                if (e[c] != 0)
                    row(std::string("dynamic_j_") + name + "_" +
                            arch::componentName(c),
                        e[c]);
        }
    }
    return out.str();
}

/**
 * Downsized Fig. 4 (utilization family): SA temporal utilization for
 * four workloads spanning the family traits on NPU-B and NPU-D.
 */
std::string
renderFig04Small()
{
    std::ostringstream out;
    out << "workload,gen,sa_temporal_util\n";
    for (auto name : {"Llama3-8B-Prefill", "Llama3-8B-Decode", "DLRM-S",
                      "DiT-XL"}) {
        for (auto gen :
             {arch::NpuGeneration::B, arch::NpuGeneration::D}) {
            auto rep = simulateScenario(builtinScenario(name), gen);
            out << name << ','
                << arch::generationName(gen) << ','
                << num(rep.temporalUtil(Component::Sa)) << '\n';
        }
    }
    return out.str();
}

/**
 * Downsized Fig. 18 (power family): average per-chip power under
 * every policy plus NoPG/Full peak power, three workloads on NPU-D.
 */
std::string
renderFig18Small()
{
    std::ostringstream out;
    out << "workload,avg_nopg,avg_base,avg_hw,avg_full,avg_ideal,"
           "peak_nopg,peak_full\n";
    for (auto name : {"Llama3-8B-Prefill", "DLRM-S", "DiT-XL"}) {
        auto rep =
            simulateScenario(builtinScenario(name), arch::NpuGeneration::D);
        out << name;
        for (auto p : allPolicies())
            out << ',' << num(rep.result(p).avgPowerW);
        out << ',' << num(rep.result(Policy::NoPG).peakPowerW)
            << ',' << num(rep.result(Policy::Full).peakPowerW)
            << '\n';
    }
    return out.str();
}

/**
 * Downsized Fig. 24 (carbon family): operational carbon reduction
 * per gating design plus the Full busy-energy saving, three
 * workloads on NPU-D.
 */
std::string
renderFig24Small()
{
    std::ostringstream out;
    out << "workload,red_base,red_hw,red_full,red_ideal,"
           "busy_saving_full\n";
    for (auto name : {"Llama3-8B-Prefill", "DLRM-S", "DiT-XL"}) {
        auto rep =
            simulateScenario(builtinScenario(name), arch::NpuGeneration::D);
        out << name;
        for (auto p : {Policy::Base, Policy::HW, Policy::Full,
                       Policy::Ideal}) {
            out << ','
                << num(carbon::operationalCarbonReduction(rep, p));
        }
        out << ',' << num(rep.savingVsNoPg(Policy::Full))
            << '\n';
    }
    return out.str();
}

/**
 * Downsized Fig. 15 (SetPM timeline — the last uncovered figure
 * family): the paper's exact setpm VU-gating program executed
 * instruction by instruction on the VLIW core (dispatch cycles,
 * gated intervals, wake stalls), then a small kernel run through
 * the compiler's idleness + instrumentation passes. All integers —
 * any drift in the core's cycle accounting or the compiler's setpm
 * placement changes the bytes.
 */
std::string
renderFig15Small()
{
    using isa::PowerMode;
    using isa::FuType;

    // The paper's program: 2 SAs, 2 VUs, 8-cycle pops, 2-cycle VU
    // on/off delay (bench/fig15_setpm_timeline.cc renders the same
    // program as a table).
    isa::VliwCoreConfig cfg;
    cfg.numSa = 2;
    cfg.numVu = 2;
    cfg.vuWakeDelay = 2;

    isa::Program p;
    p.bundle().saPop(0).saPop(1).vuOp(0).vuOp(1);
    p.bundle().vuOp(0).vuOp(1).setpm(0b11, FuType::Vu,
                                     PowerMode::Off);
    p.bundle().saPop(0).saPop(1).nop(6);
    p.bundle().setpm(0b11, FuType::Vu, PowerMode::On);
    p.bundle().saPop(0).saPop(1).vuOp(0).vuOp(1);
    p.bundle().vuOp(0).vuOp(1).setpm(0b11, FuType::Vu,
                                     PowerMode::Off);

    isa::VliwCore core(cfg);
    core.run(p);

    std::ostringstream out;
    out << "record,value\n";
    for (std::size_t i = 0; i < p.bundles().size(); ++i) {
        out << "dispatch_I" << i + 1 << ','
            << core.bundleDispatch()[i] << '\n';
        out << "misc_I" << i + 1 << ','
            << (p.bundles()[i].misc.has_value()
                    ? p.bundles()[i].misc->toString()
                    : "-")
            << '\n';
    }
    out << "total_cycles," << core.totalCycles() << '\n'
        << "wake_stalls," << core.wakeStallCycles() << '\n';
    for (int vu = 0; vu < cfg.numVu; ++vu) {
        std::size_t k = 0;
        for (const auto &iv : core.vuTrace(vu).gated)
            out << "vu" << vu << "_gated_" << k++ << ',' << iv.start
                << ".." << iv.end << '\n';
        out << "vu" << vu << "_gated_cycles,"
            << core.vuTrace(vu).gatedCycles() << '\n';
    }

    // Downsized compiler-instrumented kernel (fig15's second half
    // uses 16 tiles x 100-cycle pops; 4 x 50 keeps the golden fast).
    compiler::KernelSpec spec;
    spec.tiles = 4;
    spec.popCycles = 50;
    spec.vuOpsPerTile = 2;
    arch::GatingParams params;
    auto result = compiler::compileKernel(spec, cfg, params);

    isa::VliwCore gated(cfg);
    gated.run(result.program);
    out << "kernel_setpm_inserted,"
        << result.instrumentation.setpmInserted << '\n'
        << "kernel_gated_intervals,"
        << result.instrumentation.gatedIntervals << '\n'
        << "kernel_vu0_gated_cycles,"
        << gated.vuTrace(0).gatedCycles() << '\n'
        << "kernel_total_cycles," << gated.totalCycles() << '\n'
        << "kernel_wake_stalls," << gated.wakeStallCycles() << '\n';
    return out.str();
}

void
checkGolden(const std::string &name, const std::string &rendered)
{
    std::string path = std::string(REGATE_GOLDEN_DIR) + "/" + name;
    if (std::getenv("REGATE_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << rendered;
        ASSERT_TRUE(out.good());
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden " << path
        << " (run with REGATE_UPDATE_GOLDEN=1 to create)";
    std::stringstream golden;
    golden << in.rdbuf();
    // Byte equality: any drift in any digit is a failure. The diff
    // gtest prints on mismatch is the review artifact.
    EXPECT_EQ(golden.str(), rendered)
        << "golden mismatch for " << name
        << "; if the change is intentional, regenerate with "
           "REGATE_UPDATE_GOLDEN=1 and review the diff";
}

TEST(GoldenFigures, Fig03EnergyBreakdownSmall)
{
    checkGolden("fig03_energy_breakdown_small.csv",
                renderFig03Small());
}

TEST(GoldenFigures, Fig21LeakageSensitivitySmall)
{
    checkGolden("fig21_sens_leakage_small.csv", renderFig21Small());
}

TEST(GoldenFigures, Table3DelaysAndBets)
{
    checkGolden("table3_delays_bets.csv", renderTable3());
}

TEST(GoldenFigures, PowerModelAllGenerations)
{
    checkGolden("power_model_generations.csv", renderPowerModel());
}

TEST(GoldenFigures, Fig04SaTemporalUtilSmall)
{
    checkGolden("fig04_sa_temporal_util_small.csv",
                renderFig04Small());
}

TEST(GoldenFigures, Fig18PowerSmall)
{
    checkGolden("fig18_power_small.csv", renderFig18Small());
}

TEST(GoldenFigures, Fig24CarbonReductionSmall)
{
    checkGolden("fig24_carbon_reduction_small.csv",
                renderFig24Small());
}

TEST(GoldenFigures, Fig15SetpmTimelineSmall)
{
    checkGolden("fig15_setpm_timeline_small.csv",
                renderFig15Small());
}

}  // namespace
}  // namespace sim
}  // namespace regate
