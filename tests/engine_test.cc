/**
 * @file
 * Tests for the workload engine: policy evaluation on hand-built
 * graphs with known structure and, bit for bit, against a per-policy
 * reference on every paper workload, the op records' order and sharing, and
 * execute()'s burst-shape composition against the general timeline
 * algebra on every paper workload and example spec.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/checked.h"
#include "compiler/compiler.h"
#include "core/gating_engine.h"
#include "ici/topology.h"
#include "models/registry.h"
#include "models/spec.h"
#include "models/workload.h"
#include "sa/sa_analytical.h"
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

TEST(Engine, RunCyclesPast64BitsAreAnOverflowError)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    try {
        engine.execute(gemmNormGraph(std::uint64_t{1} << 62), 1);
        ADD_FAILURE() << "2^62 repeats of a block executed";
    } catch (const OverflowError &e) {
        EXPECT_EQ(std::string(e.what()).rfind(
                      "config error: block 'layer': cycle count ", 0),
                  0u)
            << e.what();
    }
}

TEST(Engine, WakeOverheadPast64BitsIsAnOverflowError)
{
    // The params accept this scale (each Table-3 count still fits),
    // but four repeats of the GEMM's VU wake stalls add up past 2^64.
    arch::GatingParams params;
    params.setDelayScale(1e16);
    Engine engine(arch::npuConfig(NpuGeneration::D), params);
    auto ex = engine.execute(gemmNormGraph(4), 1);
    EXPECT_THROW(engine.evaluateGated(ex.run, ex.blocks), OverflowError);
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
    EXPECT_EQ(run.sramSetpmPairs, ex.run.sramSetpmPairs);
}

/**
 * The residual leak factors of §6.1, written out per policy: nothing
 * gated under NoPG, drowsy SRAM under Base/HW, SRAM off under Full,
 * and no leakage at all under Ideal.
 */
LeakFactors
referenceLeak(Policy policy, const arch::LeakageRatios &r)
{
    switch (policy) {
      case Policy::NoPG:
        return {1.0, 1.0};
      case Policy::Base:
      case Policy::HW:
        return {r.logicOff, r.sramSleep};
      case Policy::Full:
        return {r.logicOff, r.sramOff};
      case Policy::Ideal:
        break;
    }
    return {0.0, 0.0};
}

/**
 * The §6.4 wake-up cycles of @p policy over @p blocks, written out per
 * policy and unit. In each block instance, a gap before a unit's use
 * (wrapping around from the block's last use) of at least the unit's
 * detection window (the full SA's for the SA) is charged: on the SA,
 * the full-SA delay under Base and one PE delay under HW/Full; on the
 * VU, its delay under Base/HW when the VU is the op's bottleneck (Full
 * pre-wakes it with setpm); on HBM, its delay under all three when HBM
 * is the bottleneck; on ICI, its delay under all three. Base also
 * stalls the SA on 15% of the VU wakes of each SA-bound op that used
 * the VU. NoPG and Ideal pay nothing.
 */
Cycles
referenceOverhead(const arch::GatingParams &params,
                  const std::vector<Execution::Block> &blocks, Policy policy)
{
    using arch::GatedUnit;
    const bool base = policy == Policy::Base;
    const bool hw = policy == Policy::HW;
    const bool full = policy == Policy::Full;
    Cycles total = 0;
    for (const auto &block : blocks) {
        Cycles ov = 0;
        if (base) {
            for (std::uint64_t activations : block.vuStallActivations)
                ov += checkedCount(
                    static_cast<double>(activations) *
                        static_cast<double>(
                            params.onOffDelay(GatedUnit::Vu)) *
                        0.15,
                    "reference stall");
        }
        for (auto [c, unit] :
             {std::pair{Component::Sa, GatedUnit::SaFull},
              std::pair{Component::Vu, GatedUnit::Vu},
              std::pair{Component::Hbm, GatedUnit::Hbm},
              std::pair{Component::Ici, GatedUnit::Ici}}) {
            const auto &uses = block.usage[c];
            for (std::size_t i = 0; i < uses.size(); ++i) {
                Cycles gap = i == 0 ? block.duration - uses.back().end +
                                          uses[0].start
                                    : uses[i].start - uses[i - 1].end;
                if (gap < params.detectionWindow(unit))
                    continue;
                bool bottleneck = uses[i].bottleneck == c;
                if (c == Component::Sa && base)
                    ov += params.onOffDelay(GatedUnit::SaFull);
                if (c == Component::Sa && (hw || full))
                    ov += params.onOffDelay(GatedUnit::SaPe);
                if (c == Component::Vu && (base || hw) && bottleneck)
                    ov += params.onOffDelay(GatedUnit::Vu);
                if (c == Component::Hbm && (base || hw || full) &&
                    bottleneck)
                    ov += params.onOffDelay(GatedUnit::Hbm);
                if (c == Component::Ici && (base || hw || full))
                    ov += params.onOffDelay(GatedUnit::Ici);
            }
        }
        total += ov * block.repeat;
    }
    return total;
}

/**
 * One design's evaluation over @p run, written out per policy from the
 * building blocks: one core::evaluateTimeline walk per unit, the SA
 * PE-level split from sa::saStaticEnergyGated, SRAM by used capacity,
 * Other never gated, the wake-up cycles (@p overhead, from
 * referenceOverhead) charged at the post-gating average static power,
 * and the peak over the op records.
 */
PolicyResult
referencePolicy(const Engine &engine, const WorkloadRun &run,
                Policy policy, Cycles overhead)
{
    const auto &power = engine.powerModel();
    const auto &params = engine.params();
    const double tau = engine.config().cycleTime();
    const LeakFactors leak = referenceLeak(policy, params.ratios());
    const std::array<Component, 4> units = {
        Component::Sa, Component::Vu, Component::Hbm, Component::Ici};
    const std::array<core::UnitSpec, 4> specs = {{
        {arch::GatedUnit::SaFull, power.staticPower(Component::Sa), tau},
        {arch::GatedUnit::Vu, power.staticPower(Component::Vu), tau},
        {arch::GatedUnit::Hbm, power.staticPower(Component::Hbm), tau},
        {arch::GatedUnit::Ici, power.staticPower(Component::Ici), tau},
    }};

    PolicyResult res;
    res.policy = policy;
    energy::EnergyBreakdown e;
    for (std::size_t i = 0; i < units.size(); ++i) {
        core::GatingMode mode =
            policy == Policy::NoPG ? core::GatingMode::None
            : policy == Policy::Ideal ? core::GatingMode::Ideal
            : units[i] == Component::Vu && policy == Policy::Full
                ? core::GatingMode::SwExact
                : core::GatingMode::HwDetect;
        auto r = core::evaluateTimeline(run.timeline[units[i]], specs[i],
                                        mode, params);
        e.staticJ[units[i]] = r.staticEnergy;
        if (mode == core::GatingMode::SwExact)
            res.vuGateEvents = r.gateEvents;
    }
    if (policy == Policy::HW || policy == Policy::Full ||
        policy == Policy::Ideal) {
        double flat = power.staticPower(Component::Sa) * tau *
                      static_cast<double>(
                          run.timeline[Component::Sa].activeCycles());
        double gated = sa::saStaticEnergyGated(
            run.saStats, power.peStaticPower(), tau,
            sa::kWOnPowerFraction, leak.logic);
        if (gated < flat)
            e.staticJ[Component::Sa] += gated - flat;
    }
    double used = run.sramUsedIntegral;
    double unused = static_cast<double>(run.cycles) - used;
    e.staticJ[Component::Sram] = power.staticPower(Component::Sram) *
                                 tau * (used + leak.sram * unused);
    e.staticJ[Component::Other] = power.staticPower(Component::Other) *
                                  tau * static_cast<double>(run.cycles);
    e.dynamicJ = power.dynamicEnergy(run.work);

    res.overheadCycles = overhead;
    res.perfOverhead = run.cycles > 0
                           ? static_cast<double>(overhead) /
                                 static_cast<double>(run.cycles)
                           : 0.0;
    res.seconds = static_cast<double>(run.cycles + overhead) * tau;
    if (overhead > 0 && run.cycles > 0) {
        double avg_static_w =
            e.staticJ.sum() / (static_cast<double>(run.cycles) * tau);
        e.staticJ[Component::Other] +=
            avg_static_w * static_cast<double>(overhead) * tau;
    }
    res.energy = e;
    res.avgPowerW = e.busyTotal() / res.seconds;

    double peak = 0;
    for (const auto &rec : run.opRecords) {
        double dur_s = static_cast<double>(rec.duration) * tau;
        double p_static = 0;
        for (auto c : units) {
            double f = rec.activeFrac[c];
            p_static += power.staticPower(c) * (f + (1.0 - f) * leak.logic);
        }
        p_static += power.staticPower(Component::Sram) *
                    (rec.sramUsedFrac +
                     (1.0 - rec.sramUsedFrac) * leak.sram);
        p_static += power.staticPower(Component::Other);
        peak = std::max(peak, p_static + rec.dynamicJ / dur_s);
    }
    res.peakPowerW = peak;
    return res;
}

TEST(Engine, EvaluateGatedMatchesPerPolicyReference)
{
    // Every paper workload on NPU-D under a grid of delay scales and
    // leakage ratios; one sram_sleep value equals one sram_off value,
    // so Full's leak factors sometimes coincide with Base/HW's.
    std::vector<arch::GatingParams> grid;
    for (double scale : {0.5, 1.0, 4.0})
        for (double logic_off : {0.03, 0.0})
            for (double sram_sleep : {0.25, 0.002})
                for (double sram_off : {0.002, 0.1}) {
                    arch::GatingParams params(
                        arch::LeakageRatios{logic_off, sram_sleep, sram_off});
                    params.setDelayScale(scale);
                    grid.push_back(params);
                }
    ASSERT_EQ(grid.size(), 24u);

    const auto gen = NpuGeneration::D;
    const auto &cfg = arch::npuConfig(gen);
    std::size_t checked = 0, charged = 0;
    for (auto w : models::allWorkloads()) {
        const auto &spec = *builtinScenario(w);
        SCOPED_TRACE(spec.name);
        auto setup = models::defaultScenarioSetup(spec, gen);
        auto compiled = compiler::compileGraph(
            models::buildScenarioGraph(spec, setup), cfg);
        Execution ex = Engine(cfg).execute(compiled.graph, setup.chips);
        Engine plain(cfg);
        for (auto p : {Policy::NoPG, Policy::Ideal}) {
            SCOPED_TRACE(policyName(p));
            expectResultsEqual(
                ex.run.result(p),
                referencePolicy(plain, ex.run, p,
                                referenceOverhead({}, ex.blocks, p)));
        }
        // In grid order one memo reuses walks across the runs of
        // params that share the delay scale and logic leak.
        GatedMemo memo;
        for (std::size_t g = 0; g < grid.size(); ++g) {
            Engine engine(cfg, grid[g]);
            GatedResults gated = engine.evaluateGated(ex.run, ex.blocks);
            GatedResults memoized =
                engine.evaluateGated(ex.run, ex.blocks, &memo);
            for (std::size_t i = 0; i < gated.size(); ++i) {
                Policy p = kGatedPolicies[i];
                SCOPED_TRACE(testing::Message()
                             << policyName(p) << " params " << g);
                PolicyResult want = referencePolicy(
                    engine, ex.run, p,
                    referenceOverhead(grid[g], ex.blocks, p));
                expectResultsEqual(gated[i], want);
                expectResultsEqual(memoized[i], want);
                ++checked;
                charged += want.overheadCycles > 0;
            }
        }
    }
    EXPECT_EQ(checked, 17u * 24u * 3u);
    // The wake-up model is exercised, not only its zero.
    EXPECT_GT(charged, checked / 2);
}

TEST(Engine, GatedMemoIsReusedOnlyForItsExecutionAndInputs)
{
    const auto &cfg = arch::npuConfig(NpuGeneration::D);
    Execution a = Engine(cfg).execute(gemmNormGraph(3), 1);
    Execution b = Engine(cfg).execute(gemmNormGraph(5), 1);
    arch::GatingParams base;
    arch::GatingParams sram(arch::LeakageRatios{0.03, 0.5, 0.1});
    arch::GatingParams logic(arch::LeakageRatios{0.1, 0.25, 0.002});
    arch::GatingParams delay;
    delay.setDelayScale(3);

    // Alternating executions and params through one memo: each call
    // equals a fresh evaluation.
    GatedMemo memo;
    for (const auto *params : {&base, &sram, &logic, &delay, &base})
        for (const Execution *ex : {&a, &a, &b}) {
            Engine engine(cfg, *params);
            GatedResults fresh = engine.evaluateGated(ex->run, ex->blocks);
            GatedResults memoized =
                engine.evaluateGated(ex->run, ex->blocks, &memo);
            for (std::size_t i = 0; i < fresh.size(); ++i)
                expectResultsEqual(memoized[i], fresh[i]);
            EXPECT_EQ(memo.run, &ex->run);
            EXPECT_EQ(memo.delayScale, params->delayScale());
            EXPECT_EQ(memo.logicOff, params->ratios().logicOff);
        }

    // The memo's walks are what a call with the same delay scale and
    // logic leak reads: a value planted in Base's SA walk comes back
    // under other SRAM ratios, and not under another delay scale.
    Engine(cfg, base).evaluateGated(a.run, a.blocks, &memo);
    auto &sa_walk = memo.shared.walks[0][static_cast<std::size_t>(
        core::GatingMode::HwDetect)];
    ASSERT_TRUE(sa_walk);
    sa_walk->staticEnergy = -1;
    EXPECT_EQ(Engine(cfg, sram)
                  .evaluateGated(a.run, a.blocks, &memo)[0]
                  .energy.staticJ[Component::Sa],
              -1.0);
    EXPECT_GT(Engine(cfg, delay)
                  .evaluateGated(a.run, a.blocks, &memo)[0]
                  .energy.staticJ[Component::Sa],
              0.0);
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
