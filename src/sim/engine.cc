#include "sim/engine.h"

#include <algorithm>

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

/** The units with activity timelines; SRAM and Other have none. */
constexpr std::array<Component, 4> kGated = {
    Component::Sa, Component::Vu, Component::Hbm, Component::Ici};

}  // namespace

const std::array<Policy, kNumPolicies> &
allPolicies()
{
    static const std::array<Policy, kNumPolicies> all = {
        Policy::NoPG, Policy::Base, Policy::HW, Policy::Full,
        Policy::Ideal};
    return all;
}

std::string
policyName(Policy p)
{
    switch (p) {
      case Policy::NoPG:
        return "NoPG";
      case Policy::Base:
        return "ReGate-Base";
      case Policy::HW:
        return "ReGate-HW";
      case Policy::Full:
        return "ReGate-Full";
      case Policy::Ideal:
        return "Ideal";
    }
    throw LogicError("unknown Policy");
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

    // The VU wake-ups of an SA-bound op can stall the SA pipeline
    // under ReGate-Base (see wakeOverheads).
    auto stallsSa = [](const OpExecution &ex) {
        return ex.active[Component::Sa] > 0 &&
               ex.active[Component::Vu] > 0 &&
               ex.bottleneck == Component::Sa;
    };

    for (const auto &block : graph.blocks) {
        Execution::Block &eb = exec.blocks.emplace_back();
        eb.repeat = block.repeat;

        exs.clear();
        arch::ComponentMap<std::size_t> uses{};
        std::size_t stalls = 0;
        for (const auto &op : block.ops) {
            const OpExecution &ex = exs.emplace_back(op_sim.simulate(op));
            for (auto c : kGated)
                uses[c] += ex.active[c] > 0;
            stalls += stallsSa(ex);
        }
        for (auto c : kGated)
            eb.usage[c].reserve(uses[c]);
        eb.vuStallActivations.reserve(stalls);

        arch::ComponentMap<ActivityTimeline> block_tl;
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

            for (auto c : kGated) {
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

            block_dur += ex.duration;
        }
        eb.duration = block_dur;

        // Scale the block to its repeat count and append to the run.
        for (auto c : kGated) {
            block_tl[c].repeat(block.repeat);
            run.timeline[c].append(std::move(block_tl[c]));
        }
        double rep = static_cast<double>(block.repeat);
        run.work.macs += block_work.macs * rep;
        run.work.vuOps += block_work.vuOps * rep;
        run.work.sramBytes += block_work.sramBytes * rep;
        run.work.hbmBytes += block_work.hbmBytes * rep;
        run.work.iciBytes += block_work.iciBytes * rep;
        run.saStats += block_sa.scaled(block.repeat);
        run.sramUsedIntegral += block_sram_integral * rep;
        run.cycles += block_dur * block.repeat;

        // SRAM resize setpm pairs (Full only; reported in Fig. 20).
        run.policies[static_cast<std::size_t>(Policy::Full)]
            .sramSetpmPairs += sram_resizes * block.repeat;
    }
    run.seconds = static_cast<double>(run.cycles) * cfg_.cycleTime();
    // Neither reads a gating parameter, and neither has a wake-up
    // overhead (wakeOverheads charges Base/HW/Full only).
    for (auto p : {Policy::NoPG, Policy::Ideal})
        evaluatePolicy(run, p, 0, run.policies[static_cast<std::size_t>(p)]);
    return exec;
}

GatedResults
Engine::evaluateGated(const WorkloadRun &run,
                      const std::vector<Execution::Block> &blocks) const
{
    auto overheads = wakeOverheads(blocks);
    GatedResults out;
    for (std::size_t i = 0; i < out.size(); ++i) {
        auto slot = static_cast<std::size_t>(kGatedPolicies[i]);
        // Full's slot carries the execution's SRAM setpm pairs.
        out[i] = run.policies[slot];
        evaluatePolicy(run, kGatedPolicies[i], overheads[slot], out[i]);
    }
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

std::array<Cycles, kNumPolicies>
Engine::wakeOverheads(const std::vector<Execution::Block> &blocks) const
{
    std::array<Cycles, kNumPolicies> overheads{};
    for (const auto &block : blocks) {
        std::array<Cycles, kNumPolicies> block_ov{};
        auto charge = [&](Policy p, Cycles d) {
            block_ov[static_cast<std::size_t>(p)] += d;
        };

        // ReGate-Base cannot hide the per-burst VU wake-ups that
        // drain SA output tiles (§6.4): with the idle-detection FSM
        // gating the VU between bursts, a fraction of the 2-cycle
        // wakes stalls the SA pipeline (the output queue absorbs the
        // rest). ReGate-HW/Full pre-wake via the dataflow / setpm and
        // expose nothing.
        constexpr double kVuStallShare = 0.15;
        for (std::uint64_t activations : block.vuStallActivations) {
            double stalls =
                static_cast<double>(activations) *
                static_cast<double>(params_.onOffDelay(GatedUnit::Vu)) *
                kVuStallShare;
            charge(Policy::Base, static_cast<Cycles>(stalls));
        }

        // Inter-use wake overhead per policy: count idle gaps (with
        // wrap-around between block repeats) that the hardware
        // idle-detection would have gated before the next use.
        for (auto c : kGated) {
            const auto &uses = block.usage[c];
            if (uses.empty())
                continue;
            GatedUnit unit = c == Component::Sa ? GatedUnit::SaFull
                             : c == Component::Vu ? GatedUnit::Vu
                             : c == Component::Hbm ? GatedUnit::Hbm
                                                   : GatedUnit::Ici;
            Cycles window = params_.detectionWindow(unit);
            for (std::size_t i = 0; i < uses.size(); ++i) {
                Cycles gap = i == 0 ? block.duration - uses.back().end +
                                          uses[0].start
                                    : uses[i].start - uses[i - 1].end;
                if (gap < window)
                    continue;
                bool is_bottleneck = uses[i].bottleneck == c;
                switch (c) {
                  case Component::Sa:
                    // Base pays the full-SA wake; HW/Full overlap the
                    // diagonal wake and expose one PE delay (§6.4).
                    charge(Policy::Base,
                           params_.onOffDelay(GatedUnit::SaFull));
                    charge(Policy::HW,
                           params_.onOffDelay(GatedUnit::SaPe));
                    charge(Policy::Full,
                           params_.onOffDelay(GatedUnit::SaPe));
                    break;
                  case Component::Vu:
                    // Exposed only when the VU gates the op; Full
                    // pre-wakes via setpm (§4.3).
                    if (is_bottleneck) {
                        charge(Policy::Base,
                               params_.onOffDelay(GatedUnit::Vu));
                        charge(Policy::HW,
                               params_.onOffDelay(GatedUnit::Vu));
                    }
                    break;
                  case Component::Hbm:
                    if (is_bottleneck) {
                        for (Policy p : {Policy::Base, Policy::HW,
                                         Policy::Full}) {
                            charge(p,
                                   params_.onOffDelay(GatedUnit::Hbm));
                        }
                    }
                    break;
                  case Component::Ici:
                    for (Policy p :
                         {Policy::Base, Policy::HW, Policy::Full})
                        charge(p, params_.onOffDelay(GatedUnit::Ici));
                    break;
                  default:
                    break;
                }
            }
        }

        for (std::size_t p = 0; p < kNumPolicies; ++p)
            overheads[p] += block_ov[p] * block.repeat;
    }
    return overheads;
}

void
Engine::evaluatePolicy(const WorkloadRun &run, Policy policy,
                       Cycles overhead, PolicyResult &res) const
{
    res.policy = policy;
    const double tau = cfg_.cycleTime();
    const auto &ratios = params_.ratios();

    auto modeFor = [&](Component c) -> GatingMode {
        if (policy == Policy::NoPG)
            return GatingMode::None;
        if (policy == Policy::Ideal)
            return GatingMode::Ideal;
        if (c == Component::Vu && policy == Policy::Full)
            return GatingMode::SwExact;
        return GatingMode::HwDetect;
    };

    energy::EnergyBreakdown e;

    // ---- SA ----
    {
        core::UnitSpec spec{GatedUnit::SaFull,
                            power_.staticPower(Component::Sa), tau};
        auto r = core::evaluateTimeline(run.timeline[Component::Sa],
                                        spec, modeFor(Component::Sa),
                                        params_);
        double e_sa = r.staticEnergy;
        if (policy == Policy::HW || policy == Policy::Full ||
            policy == Policy::Ideal) {
            // Replace the flat active-period energy with the
            // PE-granularity split from the analytical SA model.
            double flat = power_.staticPower(Component::Sa) * tau *
                          static_cast<double>(
                              run.timeline[Component::Sa].activeCycles());
            double off_leak =
                policy == Policy::Ideal ? 0.0 : ratios.logicOff;
            // The per-SA analytical totals already cover all PEs of
            // one array; numSa arrays ran the serial tile stream in
            // parallel, so PE-cycle totals are unchanged.
            double gated = power_.peStaticPower() * tau *
                           (static_cast<double>(run.saStats.peOnCycles) +
                            sa::kWOnPowerFraction *
                                static_cast<double>(
                                    run.saStats.peWOnCycles) +
                            off_leak * static_cast<double>(
                                           run.saStats.peOffCycles));
            if (gated < flat)
                e_sa += gated - flat;
        }
        e.staticJ[Component::Sa] = e_sa;
    }

    // ---- VU ----
    {
        core::UnitSpec spec{GatedUnit::Vu,
                            power_.staticPower(Component::Vu), tau};
        auto r = core::evaluateTimeline(run.timeline[Component::Vu],
                                        spec, modeFor(Component::Vu),
                                        params_);
        e.staticJ[Component::Vu] = r.staticEnergy;
        if (policy == Policy::Full)
            res.vuGateEvents = r.gateEvents;
    }

    // ---- HBM ----
    {
        core::UnitSpec spec{GatedUnit::Hbm, power_.hbmStaticPower(),
                            tau};
        auto r = core::evaluateTimeline(run.timeline[Component::Hbm],
                                        spec, modeFor(Component::Hbm),
                                        params_);
        e.staticJ[Component::Hbm] = r.staticEnergy;
    }

    // ---- ICI ----
    {
        core::UnitSpec spec{GatedUnit::Ici, power_.iciStaticPower(),
                            tau};
        auto r = core::evaluateTimeline(run.timeline[Component::Ici],
                                        spec, modeFor(Component::Ici),
                                        params_);
        e.staticJ[Component::Ici] = r.staticEnergy;
    }

    // ---- SRAM: capacity-based (§4.1) ----
    {
        double p_sram = power_.staticPower(Component::Sram);
        double used = run.sramUsedIntegral;
        double unused = static_cast<double>(run.cycles) - used;
        double leak;
        switch (policy) {
          case Policy::NoPG:
            leak = 1.0;
            break;
          case Policy::Base:
          case Policy::HW:
            leak = ratios.sramSleep;
            break;
          case Policy::Full:
            leak = ratios.sramOff;
            break;
          case Policy::Ideal:
            leak = 0.0;
            break;
          default:
            throw LogicError("unknown policy");
        }
        e.staticJ[Component::Sram] = p_sram * tau * (used + leak * unused);
    }

    // ---- Other: never gated ----
    e.staticJ[Component::Other] = power_.staticPower(Component::Other) *
                                  tau *
                                  static_cast<double>(run.cycles);

    // ---- Dynamic energy (identical across policies) ----
    e.dynamicJ = power_.dynamicEnergy(run.work);

    // ---- Performance overhead ----
    res.overheadCycles = overhead;
    res.perfOverhead =
        run.cycles > 0 ? static_cast<double>(res.overheadCycles) /
                             static_cast<double>(run.cycles)
                       : 0.0;
    res.seconds = static_cast<double>(run.cycles + res.overheadCycles) *
                  tau;
    // The chip burns (policy-reduced) static power during the extra
    // cycles; charge it at the post-gating average static power.
    if (res.overheadCycles > 0 && run.cycles > 0) {
        double avg_static_w =
            e.staticJ.sum() / (static_cast<double>(run.cycles) * tau);
        e.staticJ[Component::Other] +=
            avg_static_w * static_cast<double>(res.overheadCycles) * tau;
    }

    res.energy = e;
    res.avgPowerW = e.busyTotal() / res.seconds;

    // ---- Peak power: most power-hungry operator (Fig. 18) ----
    // Everything but the record's own fractions is fixed per policy.
    const double leak_c = policy == Policy::NoPG    ? 1.0
                          : policy == Policy::Ideal ? 0.0
                                                    : ratios.logicOff;
    const double sram_leak = policy == Policy::NoPG ? 1.0
                             : policy == Policy::Ideal
                                 ? 0.0
                                 : (policy == Policy::Full
                                        ? ratios.sramOff
                                        : ratios.sramSleep);
    std::array<double, kGated.size()> p_logic;
    for (std::size_t i = 0; i < kGated.size(); ++i)
        p_logic[i] = power_.staticPower(kGated[i]);
    const double p_sram = power_.staticPower(Component::Sram);
    const double p_other = power_.staticPower(Component::Other);
    double peak = 0;
    for (const auto &rec : run.opRecords) {
        double dur_s = static_cast<double>(rec.duration) * tau;
        double p_static = 0;
        for (std::size_t i = 0; i < kGated.size(); ++i) {
            double f = rec.activeFrac[kGated[i]];
            p_static += p_logic[i] * (f + (1.0 - f) * leak_c);
        }
        p_static += p_sram * (rec.sramUsedFrac +
                              (1.0 - rec.sramUsedFrac) * sram_leak);
        p_static += p_other;
        peak = std::max(peak, p_static + rec.dynamicJ / dur_s);
    }
    res.peakPowerW = peak;
}

}  // namespace sim
}  // namespace regate
