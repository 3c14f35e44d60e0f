/**
 * @file
 * Tests for the workload engine: policy evaluation on hand-built
 * graphs with known structure, the op records' order and sharing, and
 * execute()'s burst-shape composition against the general timeline
 * algebra on every paper workload and example spec.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "compiler/compiler.h"
#include "ici/topology.h"
#include "models/registry.h"
#include "models/spec.h"
#include "models/workload.h"
#include "sim/engine.h"

namespace regate {
namespace sim {
namespace {

using arch::Component;
using arch::NpuGeneration;
using models::builtinScenario;
using graph::Block;
using graph::Operator;
using graph::OperatorGraph;
using graph::OpKind;

OperatorGraph
gemmNormGraph(std::uint64_t repeat)
{
    OperatorGraph g;
    g.name = "gemm-norm";
    Block b;
    b.name = "layer";
    b.repeat = repeat;

    Operator mm;
    mm.kind = OpKind::MatMul;
    mm.name = "mm";
    mm.m = 16384;
    mm.k = 1024;
    mm.n = 1024;
    mm.hbmReadBytes = 2e6;
    mm.sramDemandBytes = 8e6;
    b.ops.push_back(mm);

    Operator norm;
    norm.kind = OpKind::Normalization;
    norm.name = "norm";
    norm.vuOps = 1e7;
    norm.hbmReadBytes = 6e7;
    norm.hbmWriteBytes = 6e7;
    norm.sramDemandBytes = 2e6;
    b.ops.push_back(norm);

    g.blocks.push_back(b);
    return g;
}

TEST(Engine, PolicyNamesAndOrder)
{
    EXPECT_EQ(policyName(Policy::NoPG), "NoPG");
    EXPECT_EQ(policyName(Policy::Base), "ReGate-Base");
    EXPECT_EQ(policyName(Policy::Full), "ReGate-Full");
    EXPECT_EQ(allPolicies().size(), kNumPolicies);
}

TEST(Engine, SavingsOrderingOnMixedGraph)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    auto run = engine.run(gemmNormGraph(20), 1);

    double base = run.savingVsNoPg(Policy::Base);
    double hw = run.savingVsNoPg(Policy::HW);
    double full = run.savingVsNoPg(Policy::Full);
    double ideal = run.savingVsNoPg(Policy::Ideal);

    EXPECT_GT(base, 0.0);
    EXPECT_GE(hw, base - 1e-9);
    EXPECT_GE(full, hw - 1e-9);
    EXPECT_GE(ideal, full - 1e-9);
    EXPECT_LT(ideal, 1.0);
    EXPECT_DOUBLE_EQ(run.savingVsNoPg(Policy::NoPG), 0.0);
}

TEST(Engine, RepeatScalesLinearly)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    auto r1 = engine.run(gemmNormGraph(5), 1);
    auto r4 = engine.run(gemmNormGraph(20), 1);
    EXPECT_EQ(r4.cycles, 4 * r1.cycles);
    EXPECT_NEAR(
        r4.result(Policy::NoPG).energy.busyTotal(),
        4 * r1.result(Policy::NoPG).energy.busyTotal(),
        r1.result(Policy::NoPG).energy.busyTotal() * 0.01);
}

TEST(Engine, TimelineAccountingConsistent)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    auto run = engine.run(gemmNormGraph(10), 1);
    for (auto c : {Component::Sa, Component::Vu, Component::Hbm,
                   Component::Ici}) {
        EXPECT_EQ(run.timeline[c].span(), run.cycles)
            << arch::componentName(c);
        run.timeline[c].checkInvariants();
    }
    // ICI never used on a single chip.
    EXPECT_DOUBLE_EQ(run.temporalUtil(Component::Ici), 0.0);
    EXPECT_GT(run.temporalUtil(Component::Sa), 0.0);
}

TEST(Engine, IdleComponentFullySavedUnderIdeal)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    auto run = engine.run(gemmNormGraph(10), 1);
    // ICI is idle the whole run: Ideal zeroes its static energy.
    const auto &ideal = run.result(Policy::Ideal);
    EXPECT_DOUBLE_EQ(ideal.energy.staticJ[Component::Ici], 0.0);
    // Full leaves the 3% gated leakage.
    const auto &full = run.result(Policy::Full);
    EXPECT_GT(full.energy.staticJ[Component::Ici], 0.0);
    const auto &nopg = run.result(Policy::NoPG);
    EXPECT_LT(full.energy.staticJ[Component::Ici],
              0.1 * nopg.energy.staticJ[Component::Ici]);
}

TEST(Engine, OtherComponentNeverGated)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    auto run = engine.run(gemmNormGraph(10), 1);
    const auto &nopg = run.result(Policy::NoPG);
    const auto &ideal = run.result(Policy::Ideal);
    EXPECT_DOUBLE_EQ(ideal.energy.staticJ[Component::Other],
                     nopg.energy.staticJ[Component::Other]);
}

TEST(Engine, DynamicEnergyIdenticalAcrossPolicies)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    auto run = engine.run(gemmNormGraph(10), 1);
    double d0 = run.result(Policy::NoPG).energy.dynamicJ.sum();
    for (auto p : allPolicies())
        EXPECT_DOUBLE_EQ(run.result(p).energy.dynamicJ.sum(), d0);
}

TEST(Engine, PerfOverheadOrdering)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    auto run = engine.run(gemmNormGraph(50), 1);
    EXPECT_DOUBLE_EQ(run.result(Policy::NoPG).perfOverhead, 0.0);
    EXPECT_DOUBLE_EQ(run.result(Policy::Ideal).perfOverhead, 0.0);
    EXPECT_GE(run.result(Policy::Base).perfOverhead,
              run.result(Policy::HW).perfOverhead);
    EXPECT_GE(run.result(Policy::HW).perfOverhead,
              run.result(Policy::Full).perfOverhead - 1e-12);
    // Paper bound: Base < ~5%, Full < 0.5%.
    EXPECT_LT(run.result(Policy::Base).perfOverhead, 0.05);
    EXPECT_LT(run.result(Policy::Full).perfOverhead, 0.005);
}

TEST(Engine, PeakPowerAtLeastAvgPower)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    auto run = engine.run(gemmNormGraph(10), 1);
    for (auto p : allPolicies()) {
        EXPECT_GE(run.result(p).peakPowerW,
                  run.result(p).avgPowerW * 0.99)
            << policyName(p);
    }
}

TEST(Engine, SramOffBeatsSleep)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    auto run = engine.run(gemmNormGraph(10), 1);
    // Full powers unused SRAM off (0.2%); Base/HW only sleep (25%).
    EXPECT_LT(run.result(Policy::Full).energy.staticJ[Component::Sram],
              run.result(Policy::HW).energy.staticJ[Component::Sram]);
}

TEST(Engine, VuSetpmCountedUnderFull)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    auto run = engine.run(gemmNormGraph(10), 1);
    // The norm op creates VU idle gaps long enough to gate.
    EXPECT_GT(run.result(Policy::Full).vuGateEvents, 0u);
}

TEST(Engine, OpRecordsCoverGraph)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    auto run = engine.run(gemmNormGraph(7), 1);
    ASSERT_EQ(run.opRecords.size(), 2u);
    const auto &mm = run.opRecords[0];
    EXPECT_EQ(mm.count, 7u);
    EXPECT_GT(mm.duration, 0u);
    EXPECT_GT(mm.dynamicJ, 0.0);
}

/** Field-by-field equality of two policy results. */
void
expectResultsEqual(const PolicyResult &a, const PolicyResult &b)
{
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.overheadCycles, b.overheadCycles);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.perfOverhead, b.perfOverhead);
    EXPECT_EQ(0, std::memcmp(&a.energy, &b.energy, sizeof(a.energy)));
    EXPECT_EQ(a.avgPowerW, b.avgPowerW);
    EXPECT_EQ(a.peakPowerW, b.peakPowerW);
    EXPECT_EQ(a.vuGateEvents, b.vuGateEvents);
    EXPECT_EQ(a.sramSetpmPairs, b.sramSetpmPairs);
}

TEST(Engine, EvaluateGatedEqualsEvaluateAndLeavesTheRun)
{
    arch::GatingParams params(arch::LeakageRatios{0.1, 0.4, 0.05});
    params.setDelayScale(3);
    Engine engine(arch::npuConfig(NpuGeneration::D), params);
    Execution ex = engine.execute(gemmNormGraph(3), 1);
    auto before = ex.run.policies;
    GatedResults gated = engine.evaluateGated(ex.run, ex.blocks);
    for (std::size_t i = 0; i < before.size(); ++i)
        expectResultsEqual(before[i], ex.run.policies[i]);
    WorkloadRun run = engine.evaluate(ex);
    for (std::size_t i = 0; i < gated.size(); ++i) {
        Policy p = kGatedPolicies[i];
        SCOPED_TRACE(policyName(p));
        EXPECT_EQ(gated[i].policy, p);
        expectResultsEqual(gated[i], run.result(p));
    }
    EXPECT_EQ(gated[2].sramSetpmPairs,
              ex.run.policies[static_cast<std::size_t>(Policy::Full)]
                  .sramSetpmPairs);
}

TEST(Engine, UnevaluatedResultIsALogicError)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    Execution ex = engine.execute(gemmNormGraph(3), 1);
    EXPECT_THROW(ex.run.result(Policy::Full), LogicError);
    EXPECT_THROW(WorkloadRun{}.result(Policy::Ideal), LogicError);
}

TEST(Engine, RecordIIsTheGraphsIthOpInBlockOrder)
{
    const auto gen = NpuGeneration::D;
    const auto &cfg = arch::npuConfig(gen);
    for (auto w : {models::Workload::Decode70B, models::Workload::DlrmS}) {
        const auto &spec = *builtinScenario(w);
        auto setup = models::defaultScenarioSetup(spec, gen);
        auto compiled = compiler::compileGraph(
            models::buildScenarioGraph(spec, setup), cfg);
        const auto &graph = compiled.graph;
        auto run = Engine(cfg).run(graph, setup.chips);

        ici::CollectiveModel coll(cfg,
                                  ici::Torus::forChips(cfg, setup.chips));
        OperatorSimulator op_sim(cfg, coll);
        const auto &records = run.opRecords;
        std::size_t i = 0;
        for (const auto &block : graph.blocks) {
            for (const auto &op : block.ops) {
                ASSERT_LT(i, records.size()) << spec.name;
                const auto &rec = records[i++];
                EXPECT_EQ(rec.count, block.repeat) << spec.name << " " << op.name;
                EXPECT_EQ(rec.duration, op_sim.simulate(op).duration)
                    << spec.name << " " << op.name;
                EXPECT_EQ(rec.sramDemandBytes, op.sramDemandBytes)
                    << spec.name << " " << op.name;
            }
        }
        EXPECT_EQ(i, records.size()) << spec.name;
        EXPECT_GT(i, 0u) << spec.name;
    }
}

TEST(Engine, ExecuteEvaluatesOnlyNoPgAndIdeal)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    Execution ex = engine.execute(gemmNormGraph(3), 1);
    WorkloadRun run = engine.evaluate(ex);
    for (auto p : allPolicies()) {
        bool precomputed = p == Policy::NoPG || p == Policy::Ideal;
        const auto &slot = ex.run.policies[static_cast<std::size_t>(p)];
        EXPECT_EQ(slot.energy.busyTotal() > 0, precomputed)
            << policyName(p);
        EXPECT_EQ(run.result(p).policy, p);
        EXPECT_GT(run.result(p).energy.busyTotal(), 0) << policyName(p);
    }
}

/**
 * Compose @p graph's timelines the general way, from each operator's
 * built timeline through append() and repeated(), and expect exactly
 * what Engine::execute composes from the burst shapes.
 */
void
expectGeneralComposition(const graph::OperatorGraph &graph,
                         arch::NpuGeneration gen, int chips,
                         const std::string &what)
{
    const auto &cfg = arch::npuConfig(gen);
    Execution ex = Engine(cfg).execute(graph, chips);

    ici::CollectiveModel coll(cfg, ici::Torus::forChips(cfg, chips));
    OperatorSimulator op_sim(cfg, coll);
    arch::ComponentMap<core::ActivityTimeline> expect;
    ASSERT_EQ(ex.blocks.size(), graph.blocks.size()) << what;
    for (std::size_t b = 0; b < graph.blocks.size(); ++b) {
        const auto &block = graph.blocks[b];
        arch::ComponentMap<core::ActivityTimeline> block_tl;
        std::vector<std::uint64_t> vu_stalls;
        for (const auto &op : block.ops) {
            OpExecution op_ex = op_sim.simulate(op);
            for (auto c : {Component::Sa, Component::Vu, Component::Hbm,
                           Component::Ici})
                block_tl[c].append(op_ex.timeline[c]);
            if (op_ex.active[Component::Sa] > 0 &&
                op_ex.active[Component::Vu] > 0 &&
                op_ex.bottleneck == Component::Sa) {
                vu_stalls.push_back(
                    op_ex.timeline[Component::Vu].activations());
            }
        }
        EXPECT_EQ(ex.blocks[b].vuStallActivations, vu_stalls)
            << what << " block " << b;
        for (auto c : {Component::Sa, Component::Vu, Component::Hbm,
                       Component::Ici})
            expect[c].append(block_tl[c].repeated(block.repeat));
    }
    for (auto c : arch::kAllComponents) {
        EXPECT_TRUE(ex.run.timeline[c] == expect[c])
            << what << " " << arch::componentName(c);
    }
}

TEST(Engine, ExecuteMatchesGeneralComposition)
{
    for (auto w : models::allWorkloads()) {
        for (auto gen : {NpuGeneration::A, NpuGeneration::B,
                         NpuGeneration::C, NpuGeneration::D}) {
            const auto &spec = *builtinScenario(w);
            auto setup = models::defaultScenarioSetup(spec, gen);
            auto compiled = compiler::compileGraph(
                models::buildScenarioGraph(spec, setup),
                arch::npuConfig(gen));
            expectGeneralComposition(
                compiled.graph, gen, setup.chips,
                models::workloadName(w) + " on " +
                    arch::generationName(gen));
        }
    }

    // A real decode graph with every block repeated at least 1024
    // times, so repeated() runs its seam arithmetic at large counts on
    // real operator shapes, not only on the default repeats.
    {
        const auto &spec = *builtinScenario(models::Workload::Decode70B);
        auto setup = models::defaultScenarioSetup(spec, NpuGeneration::D);
        auto compiled = compiler::compileGraph(
            models::buildScenarioGraph(spec, setup),
            arch::npuConfig(NpuGeneration::D));
        for (auto &block : compiled.graph.blocks)
            block.repeat = std::max<std::uint64_t>(block.repeat, 1024);
        expectGeneralComposition(compiled.graph, NpuGeneration::D,
                                 setup.chips,
                                 "Llama3-70B-Decode, repeats >= 1024");
    }

    std::size_t scenarios = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(REGATE_SPEC_DIR)) {
        if (entry.path().extension() != ".spec")
            continue;
        auto file = models::parseSpecFile(entry.path().string());
        for (const auto &spec : file.scenarios) {
            auto gen = NpuGeneration::D;
            auto setup = models::defaultScenarioSetup(*spec, gen);
            auto compiled = compiler::compileGraph(
                models::buildScenarioGraph(*spec, setup),
                arch::npuConfig(gen));
            expectGeneralComposition(
                compiled.graph, gen, setup.chips,
                entry.path().filename().string() + ": " + spec->name);
            ++scenarios;
        }
    }
    EXPECT_GT(scenarios, 0u);
}

}  // namespace
}  // namespace sim
}  // namespace regate
