/**
 * @file
 * Golden-figure regression harness. It renders what bench/figure_rows.h
 * computes for Figs. 3, 4, 15, 17, 18, 21 and 24 and Table 3 on
 * downsized axes, and the A..E area/power model, to canonical CSV at
 * full double precision, and byte-compares each against a checked-in
 * golden file: any change in any digit of any cell fails here. The
 * figure binaries print the same functions' numbers, so each golden
 * pins what its figure computes; this file holds only the axes.
 *
 * The goldens live in tests/golden/ (REGATE_GOLDEN_DIR, injected by
 * CMake). To regenerate after an *intentional* model change:
 *
 *     REGATE_UPDATE_GOLDEN=1 ctest --test-dir build -R golden
 *
 * then review the diff like any other code change.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <utility>

#include "bench/figure_rows.h"

#ifndef REGATE_GOLDEN_DIR
#error "REGATE_GOLDEN_DIR must be defined (see CMakeLists.txt)"
#endif

namespace regate {
namespace sim {
namespace {

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

/** Each of @p values as a CSV cell, a comma before each. */
template <typename Values>
std::string
cells(const Values &values)
{
    std::string out;
    for (double v : values)
        out += ',' + num(v);
    return out;
}

/** @p header, then @p row of each named paper workload on NPU-D. */
template <typename Row>
std::string
renderNpuD(const char *header, std::initializer_list<const char *> names,
           Row row)
{
    std::string out = header;
    for (auto name : names)
        out += name +
               cells(row(simulateScenario(builtinScenario(name),
                                          arch::NpuGeneration::D))) +
               '\n';
    return out;
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

// Fig. 3 (energy breakdown): four workloads spanning every family
// trait (prefill, decode, DLRM, diffusion).
TEST(GoldenFigures, Fig03EnergyBreakdownSmall)
{
    checkGolden("fig03_energy_breakdown_small.csv",
                renderNpuD("workload,idle_share,dyn_sa,sta_sa,dyn_vu,"
                           "sta_vu,dyn_sram,sta_sram,dyn_ici,sta_ici,"
                           "dyn_hbm,sta_hbm,dyn_oth,sta_oth,"
                           "static_share_busy\n",
                           {"Llama3-8B-Prefill", "Llama3-8B-Decode",
                            "DLRM-S", "DiT-XL"},
                           bench::fig03Row));
}

// Fig. 4 (utilization family): SA temporal utilization for four
// workloads spanning the family traits on NPU-B and NPU-D.
TEST(GoldenFigures, Fig04SaTemporalUtilSmall)
{
    std::string out = "workload,gen,sa_temporal_util\n";
    for (auto name : {"Llama3-8B-Prefill", "Llama3-8B-Decode", "DLRM-S",
                      "DiT-XL"}) {
        for (auto gen : {arch::NpuGeneration::B, arch::NpuGeneration::D}) {
            auto rep = simulateScenario(builtinScenario(name), gen);
            out += std::string(name) + ',' + arch::generationName(gen) +
                   ',' + num(bench::fig04Util(rep)) + '\n';
        }
    }
    checkGolden("fig04_sa_temporal_util_small.csv", out);
}

// Fig. 15 (SetPM timeline): the paper's setpm program run
// on the VLIW core (dispatch cycles, gated intervals, wake stalls),
// then a 4-tile kernel of 50-cycle pops (the figure's is 16 x 100)
// through the compiler's idleness + instrumentation passes. All
// integers: any drift in the core's cycle accounting or the
// compiler's setpm placement changes the bytes.
TEST(GoldenFigures, Fig15SetpmTimelineSmall)
{
    auto [cfg, p] = bench::fig15Program();
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

    auto result = bench::fig15Kernel(cfg, 4, 50);
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
    checkGolden("fig15_setpm_timeline_small.csv", out.str());
}

// Fig. 17 (energy savings), Fig. 18 (power) and Fig. 24 (carbon):
// three workloads.
TEST(GoldenFigures, Fig17EnergySavingsSmall)
{
    checkGolden("fig17_energy_savings_small.csv",
                renderNpuD("workload,sav_base,sav_hw,sav_full,sav_ideal,"
                           "full_sa,full_vu,full_sram,full_ici,"
                           "full_hbm\n",
                           {"Llama3-8B-Prefill", "DLRM-S", "DiT-XL"},
                           bench::fig17Row));
}

TEST(GoldenFigures, Fig18PowerSmall)
{
    checkGolden("fig18_power_small.csv",
                renderNpuD("workload,avg_nopg,avg_base,avg_hw,avg_full,"
                           "avg_ideal,peak_nopg,peak_full\n",
                           {"Llama3-8B-Prefill", "DLRM-S", "DiT-XL"},
                           bench::fig18Row));
}

// Fig. 21 (leakage sensitivity): two workloads, three leakage
// settings (default, middle, worst).
TEST(GoldenFigures, Fig21LeakageSensitivitySmall)
{
    std::string out = "workload,logic_off,sram_sleep,sram_off,"
                      "sav_base,sav_hw,sav_full\n";
    for (auto name : {"DLRM-L", "DiT-XL"}) {
        for (std::size_t k : {0, 2, 4}) {
            const auto &r = bench::kFig21Settings[k];
            auto rep = simulateScenario(builtinScenario(name),
                                        arch::NpuGeneration::D,
                                        arch::GatingParams(r));
            out += name +
                   cells(std::array{r.logicOff, r.sramSleep, r.sramOff}) +
                   cells(bench::fig21Row(rep)) + '\n';
        }
    }
    checkGolden("fig21_sens_leakage_small.csv", out);
}

TEST(GoldenFigures, Fig24CarbonReductionSmall)
{
    checkGolden("fig24_carbon_reduction_small.csv",
                renderNpuD("workload,red_base,red_hw,red_full,red_ideal,"
                           "busy_saving_full\n",
                           {"Llama3-8B-Prefill", "DLRM-S", "DiT-XL"},
                           bench::fig24Row));
}

// Table 3 (delays/BETs/windows + derived energies), all units.
TEST(GoldenFigures, Table3DelaysAndBets)
{
    std::ostringstream out;
    out << "unit,on_off_delay,bet,window,unit_static_w,"
           "transition_energy_j\n";
    for (auto u : bench::kTable3Units) {
        auto row = bench::table3Row(u);
        out << arch::gatedUnitName(u) << ',' << row.onOffDelay << ','
            << row.breakEven << ',' << row.detectionWindow << ','
            << num(row.staticW) << ',' << num(row.transitionJ) << '\n';
    }
    checkGolden("table3_delays_bets.csv", out.str());
}

// The area/power model of every generation A..E: each component's
// area and static power, the gating overhead, the per-instance static
// power of a PE, an SA, a VU and an SRAM segment, and the dynamic
// energy of one unit of each WorkCounters field. This pins every
// per-node constant (16, 7 and 4 nm) at full precision.
TEST(GoldenFigures, PowerModelAllGenerations)
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
    checkGolden("power_model_generations.csv", out.str());
}

}  // namespace
}  // namespace sim
}  // namespace regate
