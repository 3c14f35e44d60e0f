#include "sim/engine.h"

#include <algorithm>
#include <span>

#include "common/checked.h"
#include "common/error.h"
#include "core/gating_engine.h"
#include "ici/topology.h"

namespace regate {
namespace sim {

using arch::Component;
using arch::GatedUnit;
using core::ActivityTimeline;
using core::GatingMode;

namespace {

/** A unit with an activity timeline; SRAM and Other have none. */
struct Unit
{
    Component component;
    GatedUnit walked;  ///< Whose BET and detection window apply.
};

/** The timeline units, in SharedEvaluation::walks order. */
constexpr std::array<Unit, 4> kUnits = {{{Component::Sa, GatedUnit::SaFull},
                                        {Component::Vu, GatedUnit::Vu},
                                        {Component::Hbm, GatedUnit::Hbm},
                                        {Component::Ici, GatedUnit::Ici}}};

/** When a gated gap before a unit's use exposes its wake-up (§6.4). */
enum class Wake { Never, Always, IfBottleneck };

/** How one design treats one kUnits row. */
struct UnitDesign
{
    GatingMode mode;
    Wake wake;
    GatedUnit wakeDelay;  ///< Whose on/off delay an exposed wake costs.
};

/** One §6.1 design: everything the engine does differently for it. */
struct Design
{
    Policy policy;
    const char *name;
    std::array<UnitDesign, kUnits.size()> units;
    bool saPeSplit;  ///< SA static energy split at PE level (§4.2).
    /** Residual leaks of idle logic and unused SRAM; fixedLeak if null. */
    double arch::LeakageRatios::*logicLeak;
    double arch::LeakageRatios::*sramLeak;
    double fixedLeak;
    double vuStallShare;  ///< Of stallsSa ops' VU wakes, stalling the SA.
};

/** Whether @p ex's VU wakes can stall the SA: it is SA-bound, VU too. */
bool
stallsSa(const OpExecution &ex)
{
    return ex.active[Component::Sa] > 0 && ex.active[Component::Vu] > 0 &&
           ex.bottleneck == Component::Sa;
}

/**
 * The five designs, one row per Policy in enum order (§4, §6.1). HW
 * and Full overlap the SA's diagonal wake and expose one PE delay;
 * Full pre-wakes the VU with setpm (§4.3) and powers unused SRAM off.
 * Base's idle detection gates the VU between the bursts that drain SA
 * output tiles, so 15% of those wakes stall the SA (the output queue
 * absorbs the rest, §6.4). The 15% is a repo choice, not a paper value:
 * it sets Base's VU stall overhead in fig19.
 */
constexpr std::array<Design, kNumPolicies> kDesigns = [] {
    using enum GatingMode;
    using enum Wake;
    using enum GatedUnit;
    using R = arch::LeakageRatios;
    return std::array<Design, kNumPolicies>{{
        {Policy::NoPG, "NoPG",
         {{{None, Never, SaFull}, {None, Never, Vu}, {None, Never, Hbm},
           {None, Never, Ici}}},
         false, nullptr, nullptr, 1, 0},
        {Policy::Base, "ReGate-Base",
         {{{HwDetect, Always, SaFull}, {HwDetect, IfBottleneck, Vu},
           {HwDetect, IfBottleneck, Hbm}, {HwDetect, Always, Ici}}},
         false, &R::logicOff, &R::sramSleep, 0, 0.15},
        {Policy::HW, "ReGate-HW",
         {{{HwDetect, Always, SaPe}, {HwDetect, IfBottleneck, Vu},
           {HwDetect, IfBottleneck, Hbm}, {HwDetect, Always, Ici}}},
         true, &R::logicOff, &R::sramSleep, 0, 0},
        {Policy::Full, "ReGate-Full",
         {{{HwDetect, Always, SaPe}, {SwExact, Never, Vu},
           {HwDetect, IfBottleneck, Hbm}, {HwDetect, Always, Ici}}},
         true, &R::logicOff, &R::sramOff, 0, 0},
        {Policy::Ideal, "Ideal",
         {{{Ideal, Never, SaFull}, {Ideal, Never, Vu}, {Ideal, Never, Hbm},
           {Ideal, Never, Ici}}},
         true, nullptr, nullptr, 0, 0},
    }};
}();

static_assert(
    [] {
        for (std::size_t i = 0; i < kDesigns.size(); ++i)
            if (kDesigns[i].policy != static_cast<Policy>(i))
                return false;
        return true;
    }(),
    "kDesigns holds one row per Policy, in enum order");

/** @p p's kDesigns row. */
const Design &
design(Policy p)
{
    auto i = static_cast<std::size_t>(p);
    REGATE_ASSERT(i < kDesigns.size(), "unknown Policy");
    return kDesigns[i];
}

/**
 * Evaluate @p policies over @p run under @p engine's power model and
 * gating params, out[i] for policies[i], each charged its @p overheads
 * wake-up cycles. What the designs share is computed once: each
 * (unit, GatingMode) timeline walk and each logic leak's PE-level SA
 * split, which @p shared keeps and may already hold for these params,
 * the dynamic energy, and one pass over the op records for the peak
 * power of every distinct LeakFactors. Reads no policy result of
 * @p run.
 */
void
evaluatePolicies(const Engine &engine, const WorkloadRun &run,
                 std::span<const Policy> policies,
                 const std::array<Cycles, kNumPolicies> &overheads,
                 SharedEvaluation &shared, std::span<PolicyResult> out)
{
    const energy::PowerModel &power = engine.powerModel();
    const arch::GatingParams &params = engine.params();
    const double tau = engine.config().cycleTime();
    const std::size_t n = policies.size();
    std::array<LeakFactors, kNumPolicies> leak;
    for (std::size_t i = 0; i < n; ++i)
        leak[i] = leakFactors(policies[i], params.ratios());

    // ---- SA, VU, HBM, ICI: one timeline walk per (unit, mode) ----
    auto walk = [&](std::size_t u, GatingMode mode)
        -> const core::GatingResult & {
        auto &w = shared.walks[u][static_cast<std::size_t>(mode)];
        if (!w) {
            const Unit &unit = kUnits[u];
            w = core::evaluateTimeline(
                run.timeline[unit.component],
                {unit.walked, power.staticPower(unit.component), tau}, mode,
                params);
        }
        return *w;
    };

    // PE-level SA gating (saPeSplit) replaces the flat active-period
    // energy with the PE-granularity split from the analytical SA
    // model, once per logic leak. The per-SA analytical totals already
    // cover all PEs of one array; numSa arrays ran the serial tile
    // stream in parallel, so PE-cycle totals are unchanged.
    // A run sees at most two logic leaks (logic_off and Ideal's 0).
    auto saSplit = [&](double logic_leak) {
        auto &splits = shared.saSplits;
        std::size_t k = 0;
        while (k < shared.numSaSplits && splits[k].first != logic_leak)
            ++k;
        if (k == shared.numSaSplits) {
            splits[k] = {logic_leak,
                         sa::saStaticEnergyGated(
                             run.saStats, power.peStaticPower(), tau,
                             sa::kWOnPowerFraction, logic_leak)};
            ++shared.numSaSplits;
        }
        return splits[k].second;
    };
    const double sa_flat =
        power.staticPower(Component::Sa) * tau *
        static_cast<double>(run.timeline[Component::Sa].activeCycles());

    const double p_sram = power.staticPower(Component::Sram);
    const double p_other = power.staticPower(Component::Other);
    const double used = run.sramUsedIntegral;
    const double unused = static_cast<double>(run.cycles) - used;

    // ---- Dynamic energy (identical across policies) ----
    const auto dynamic = power.dynamicEnergy(run.work);

    for (std::size_t i = 0; i < n; ++i) {
        const Design &d = design(policies[i]);
        PolicyResult &res = out[i];
        res.policy = d.policy;
        energy::EnergyBreakdown e;
        res.vuGateEvents = 0;
        for (std::size_t u = 0; u < kUnits.size(); ++u) {
            GatingMode mode = d.units[u].mode;
            const core::GatingResult &r = walk(u, mode);
            e.staticJ[kUnits[u].component] = r.staticEnergy;
            if (mode == GatingMode::SwExact)  // Full's setpm-gated VU.
                res.vuGateEvents = r.gateEvents;
        }

        if (d.saPeSplit) {
            double gated = saSplit(leak[i].logic);
            if (gated < sa_flat)
                e.staticJ[Component::Sa] += gated - sa_flat;
        }

        // ---- SRAM: capacity-based (§4.1); Other: never gated ----
        e.staticJ[Component::Sram] =
            p_sram * tau * (used + leak[i].sram * unused);
        e.staticJ[Component::Other] =
            p_other * tau * static_cast<double>(run.cycles);

        e.dynamicJ = dynamic;

        // ---- Performance overhead ----
        res.overheadCycles = overheads[static_cast<std::size_t>(d.policy)];
        res.perfOverhead =
            run.cycles > 0 ? static_cast<double>(res.overheadCycles) /
                                 static_cast<double>(run.cycles)
                           : 0.0;
        res.seconds = static_cast<double>(checkedAdd(
                          run.cycles, res.overheadCycles,
                          "run cycle count with wake-up overhead")) *
                      tau;
        // The chip burns (policy-reduced) static power during the
        // extra cycles; charge it at the post-gating average static
        // power.
        if (res.overheadCycles > 0 && run.cycles > 0) {
            double avg_static_w = e.staticJ.sum() /
                                  (static_cast<double>(run.cycles) * tau);
            e.staticJ[Component::Other] +=
                avg_static_w * static_cast<double>(res.overheadCycles) *
                tau;
        }

        res.energy = e;
        res.avgPowerW = e.busyTotal() / res.seconds;
    }

    // ---- Peak power: most power-hungry operator (Fig. 18) ----
    // One pass over the records, computing the peak of each distinct
    // pair of leak factors (peak_of[i]: the first policy with
    // policies[i]'s); everything but the record's own fractions is
    // fixed per pair.
    std::array<std::size_t, kNumPolicies> peak_of;
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t j = 0;
        while (j < i && !(leak[j].logic == leak[i].logic &&
                          leak[j].sram == leak[i].sram))
            ++j;
        peak_of[i] = j;
    }
    std::array<double, kUnits.size()> p_logic;
    for (std::size_t u = 0; u < kUnits.size(); ++u)
        p_logic[u] = power.staticPower(kUnits[u].component);
    std::array<double, kNumPolicies> peak{};
    for (const auto &rec : run.opRecords) {
        double dur_s = static_cast<double>(rec.duration) * tau;
        double p_dynamic = rec.dynamicJ / dur_s;
        for (std::size_t i = 0; i < n; ++i) {
            if (peak_of[i] != i)
                continue;
            double p_static = 0;
            for (std::size_t u = 0; u < kUnits.size(); ++u) {
                double f = rec.activeFrac[kUnits[u].component];
                p_static += p_logic[u] * (f + (1.0 - f) * leak[i].logic);
            }
            p_static += p_sram * (rec.sramUsedFrac +
                                  (1.0 - rec.sramUsedFrac) * leak[i].sram);
            p_static += p_other;
            peak[i] = std::max(peak[i], p_static + p_dynamic);
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        out[i].peakPowerW = peak[peak_of[i]];
}

/** Wake-up cycles each design adds over the run of @p blocks. */
std::array<Cycles, kNumPolicies>
wakeOverheads(const arch::GatingParams &params,
              const std::vector<Execution::Block> &blocks)
{
    std::array<Cycles, kNumPolicies> overheads{};
    for (const auto &block : blocks) {
        std::array<Cycles, kNumPolicies> block_ov{};
        auto charge = [&](Policy p, Cycles d) {
            auto &ov = block_ov[static_cast<std::size_t>(p)];
            ov = checkedAdd(ov, d, "wake-up overhead cycle count");
        };

        for (Policy p : kGatedPolicies) {
            const double share = design(p).vuStallShare;
            if (share == 0)
                continue;
            for (std::uint64_t activations : block.vuStallActivations) {
                double stalls =
                    static_cast<double>(activations) *
                    static_cast<double>(params.onOffDelay(GatedUnit::Vu)) *
                    share;
                charge(p, checkedCount(stalls, "wake-up stall cycle count"));
            }
        }

        // Idle gaps between uses (wrapping around between block
        // repeats) that the idle detection would have gated before
        // the next use.
        for (std::size_t u = 0; u < kUnits.size(); ++u) {
            const Component c = kUnits[u].component;
            const auto &uses = block.usage[c];
            if (uses.empty())
                continue;
            Cycles window = params.detectionWindow(kUnits[u].walked);
            for (std::size_t i = 0; i < uses.size(); ++i) {
                Cycles gap = i == 0 ? block.duration - uses.back().end +
                                          uses[0].start
                                    : uses[i].start - uses[i - 1].end;
                if (gap < window)
                    continue;
                for (Policy p : kGatedPolicies) {
                    const UnitDesign &d = design(p).units[u];
                    if (d.wake == Wake::Always ||
                        (d.wake == Wake::IfBottleneck &&
                         uses[i].bottleneck == c))
                        charge(p, params.onOffDelay(d.wakeDelay));
                }
            }
        }

        for (std::size_t p = 0; p < kNumPolicies; ++p) {
            overheads[p] = checkedAdd(
                overheads[p],
                checkedMul(block_ov[p], block.repeat,
                           "wake-up overhead cycle count"),
                "wake-up overhead cycle count");
        }
    }
    return overheads;
}

}  // namespace

const std::array<Policy, kNumPolicies> &
allPolicies()
{
    static constexpr auto all = [] {
        std::array<Policy, kNumPolicies> out{};
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = kDesigns[i].policy;
        return out;
    }();
    return all;
}

std::string
policyName(Policy p)
{
    return design(p).name;
}

LeakFactors
leakFactors(Policy p, const arch::LeakageRatios &ratios)
{
    const Design &d = design(p);
    auto leak = [&](double arch::LeakageRatios::*ratio) {
        return ratio ? ratios.*ratio : d.fixedLeak;
    };
    return {leak(d.logicLeak), leak(d.sramLeak)};
}

double
idleStaticPower(const energy::PowerModel &power,
                const arch::GatingParams &params, Policy policy)
{
    // "Other" (management, control) stays powered even on an idle
    // chip (§3); everything else gates according to the policy.
    double logic = 0;
    for (const Unit &u : kUnits)
        logic += power.staticPower(u.component);
    auto leak = leakFactors(policy, params.ratios());
    return power.staticPower(Component::Other) +
           (logic * leak.logic +
            power.staticPower(Component::Sram) * leak.sram);
}

double
savingVs(const PolicyResult &nopg, const PolicyResult &p)
{
    double base = nopg.energy.busyTotal();
    return base > 0 ? 1.0 - p.energy.busyTotal() / base : 0.0;
}

const PolicyResult &
WorkloadRun::result(Policy p) const
{
    const PolicyResult &res = policies[static_cast<std::size_t>(p)];
    REGATE_ASSERT(res.policy == p, policyName(p),
                  " was not evaluated on this run");
    return res;
}

double
WorkloadRun::temporalUtil(arch::Component c) const
{
    return timeline[c].utilization();
}

double
WorkloadRun::savingVsNoPg(Policy p) const
{
    return savingVs(result(Policy::NoPG), result(p));
}

Engine::Engine(const arch::NpuConfig &cfg,
               const arch::GatingParams &params)
    : cfg_(cfg), params_(params), power_(cfg)
{
}

WorkloadRun
Engine::run(const graph::OperatorGraph &graph, int pod_chips) const
{
    return evaluate(execute(graph, pod_chips));
}

Execution
Engine::execute(const graph::OperatorGraph &graph, int pod_chips) const
{
    graph.validate();
    ici::Torus torus = ici::Torus::forChips(cfg_, pod_chips);
    ici::CollectiveModel coll(cfg_, torus);
    OperatorSimulator op_sim(cfg_, coll);

    Execution exec;
    WorkloadRun &run = exec.run;
    exec.blocks.reserve(graph.blocks.size());
    std::size_t num_ops = 0, max_block_ops = 0;
    for (const auto &block : graph.blocks) {
        num_ops += block.ops.size();
        max_block_ops = std::max(max_block_ops, block.ops.size());
    }
    run.opRecords.reserve(num_ops);
    // One block's operator executions, simulated before the block is
    // composed so that its usage lists are sized exactly, once.
    std::vector<OpExecution> exs;
    exs.reserve(max_block_ops);

    // One block's timelines, cleared per block but keeping their gap
    // storage, which is sized once for the largest block.
    arch::ComponentMap<ActivityTimeline> block_tl;

    for (const auto &block : graph.blocks) {
        Execution::Block &eb = exec.blocks.emplace_back();
        eb.repeat = block.repeat;

        exs.clear();
        arch::ComponentMap<std::size_t> uses{};
        std::size_t stalls = 0;
        for (const auto &op : block.ops) {
            const OpExecution &ex = exs.emplace_back(op_sim.simulate(op));
            for (const Unit &u : kUnits)
                uses[u.component] += ex.active[u.component] > 0;
            stalls += stallsSa(ex);
        }
        for (const Unit &u : kUnits) {
            eb.usage[u.component].reserve(uses[u.component]);
            block_tl[u.component].clear();
            block_tl[u.component].reserve(2 * exs.size() + 1);
        }
        eb.vuStallActivations.reserve(stalls);

        energy::WorkCounters block_work;
        sa::SaTileStats block_sa;
        double block_sram_integral = 0;
        Cycles block_dur = 0;
        std::uint64_t sram_resizes = 0;
        bool have_prev_used = false;
        std::uint64_t prev_used_bytes = 0;

        for (std::size_t i = 0; i < exs.size(); ++i) {
            const OpExecution &ex = exs[i];
            const OpBursts &shape = ex.timeline;

            if (stallsSa(ex)) {
                eb.vuStallActivations.push_back(
                    ActivityTimeline::burstActivations(
                        shape.span, shape.active[Component::Vu],
                        shape.bursts[Component::Vu]));
            }

            for (const Unit &u : kUnits) {
                Component c = u.component;
                block_tl[c].appendBursts(shape.span, shape.active[c],
                                         shape.bursts[c]);
                if (ex.active[c] > 0) {
                    eb.usage[c].push_back({block_dur,
                                           block_dur + ex.active[c],
                                           ex.bottleneck});
                }
            }
            block_work += ex.work;
            block_sa += ex.saStats;

            double used_frac =
                ex.sramUsedBytes / static_cast<double>(cfg_.sramBytes);
            block_sram_integral +=
                static_cast<double>(ex.duration) * used_frac;
            // Compare whole bytes: sramUsedBytes is a byte count that
            // happens to be carried in a double, and float equality
            // would flag resizes on sub-byte rounding noise.
            auto used_bytes =
                static_cast<std::uint64_t>(ex.sramUsedBytes + 0.5);
            if (have_prev_used && used_bytes != prev_used_bytes)
                ++sram_resizes;
            prev_used_bytes = used_bytes;
            have_prev_used = true;

            OpRecord &rec = run.opRecords.emplace_back();
            rec.count = block.repeat;
            rec.duration = ex.duration;
            rec.sramDemandBytes = block.ops[i].sramDemandBytes;
            rec.dynamicJ = power_.dynamicEnergy(ex.work).sum();
            rec.sramUsedFrac = used_frac;
            for (auto c : arch::kAllComponents)
                rec.activeFrac[c] = ex.activeFraction(c);

            block_dur =
                checkedAdd(block_dur, ex.duration, "block cycle count");
        }
        eb.duration = block_dur;

        // Scale the block to its repeat count and append to the run.
        // The run's cycles bound every timeline count, so they are
        // checked first.
        try {
            run.cycles = checkedAdd(
                run.cycles,
                checkedMul(block_dur, block.repeat, "cycle count"),
                "run cycle count");
            run.saStats += block_sa.scaled(block.repeat);
        } catch (const OverflowError &e) {
            throw e.within("block '" + block.name + "'");
        }
        for (const Unit &u : kUnits) {
            block_tl[u.component].repeat(block.repeat);
            run.timeline[u.component].append(block_tl[u.component]);
        }
        double rep = static_cast<double>(block.repeat);
        run.work.macs += block_work.macs * rep;
        run.work.vuOps += block_work.vuOps * rep;
        run.work.sramBytes += block_work.sramBytes * rep;
        run.work.hbmBytes += block_work.hbmBytes * rep;
        run.work.iciBytes += block_work.iciBytes * rep;
        run.sramUsedIntegral += block_sram_integral * rep;

        run.sramSetpmPairs += sram_resizes * block.repeat;
    }
    run.seconds = static_cast<double>(run.cycles) * cfg_.cycleTime();
    // The designs outside kGatedPolicies read no gating parameter.
    std::array<Policy, kNumPolicies - kGatedPolicies.size()> ungated;
    std::ranges::set_difference(allPolicies(), kGatedPolicies,
                                ungated.begin());
    std::array<PolicyResult, ungated.size()> results;
    SharedEvaluation shared;
    evaluatePolicies(*this, run, ungated, {}, shared, results);
    for (std::size_t i = 0; i < ungated.size(); ++i)
        run.policies[static_cast<std::size_t>(ungated[i])] = results[i];
    return exec;
}

GatedResults
Engine::evaluateGated(const WorkloadRun &run,
                      const std::vector<Execution::Block> &blocks,
                      GatedMemo *memo) const
{
    GatedMemo local;
    GatedMemo &m = memo ? *memo : local;
    const double scale = params_.delayScale();
    const double logic_off = params_.ratios().logicOff;
    if (m.run != &run || m.blocks != &blocks || m.cfg != &cfg_ ||
        m.delayScale != scale || m.logicOff != logic_off) {
        auto overheads = wakeOverheads(params_, blocks);
        m = GatedMemo{&run, &blocks, &cfg_, scale, logic_off, overheads, {}};
    }
    GatedResults out;
    evaluatePolicies(*this, run, kGatedPolicies, m.overheads, m.shared,
                     out);
    return out;
}

WorkloadRun
Engine::evaluate(Execution ex) const
{
    auto gated = evaluateGated(ex.run, ex.blocks);
    for (std::size_t i = 0; i < gated.size(); ++i)
        ex.run.policies[static_cast<std::size_t>(kGatedPolicies[i])] =
            gated[i];
    return std::move(ex.run);
}

}  // namespace sim
}  // namespace regate
