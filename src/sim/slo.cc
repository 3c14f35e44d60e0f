#include "sim/slo.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "common/error.h"
#include "models/registry.h"
#include "sim/sweep.h"

namespace regate {
namespace sim {

std::vector<models::RunSetup>
candidateSetups(const models::ScenarioSpec &spec,
                arch::NpuGeneration gen)
{
    const auto base = models::defaultScenarioSetup(spec, gen);
    std::vector<models::RunSetup> out;
    for (int chip_mul : {1, 2, 4}) {
        for (int batch_div : {4, 2, 1}) {
            models::RunSetup s = base;
            s.chips = base.chips * chip_mul;
            s.batch = std::max<std::int64_t>(1, base.batch / batch_div);
            // Re-split parallelism for the new chip count.
            if (s.chips != base.chips || s.batch != base.batch) {
                s.par = base.par;
                if (s.chips != base.chips) {
                    // Grow dp with the extra chips.
                    s.par.dp = std::max(
                        1, s.chips / (s.par.tp * s.par.pp));
                    s.chips = s.par.chips();
                }
            }
            if (s.par.dp > s.batch)
                continue;  // Idle replicas: skip.
            out.push_back(s);
        }
    }
    return out;
}

namespace {

/**
 * A candidate's execution, split so that reports can share its run
 * without keeping its blocks alive.
 */
struct Executed
{
    std::shared_ptr<const WorkloadRun> run;
    std::vector<Execution::Block> blocks;
};

using ExecutionPtr = std::shared_ptr<const Executed>;

double
secondsPerUnit(const WorkloadReport &rep)
{
    return rep.result(Policy::NoPG).seconds / rep.units;
}

/**
 * One candidate setup and what the selection reads of it: @p run is
 * the candidate's execution (the search) or its full report (the
 * serial reference).
 */
template <typename Run>
struct Candidate
{
    models::RunSetup setup;
    Run run{};
    double spu = 0;  ///< NoPG seconds per work unit.
    double epu = 0;  ///< NoPG joules per work unit (Fig. 2 metric).
};

/** @p rep's setup and selection metrics, carrying @p run. */
template <typename Run>
Candidate<Run>
measured(const WorkloadReport &rep, Run run)
{
    return {rep.setup, std::move(run), secondsPerUnit(rep),
            rep.energyPerUnit(Policy::NoPG)};
}

/**
 * The selection rule both searches apply to candidates offered in
 * input order: the first strictly most energy-efficient candidate
 * that meets the target, or, if none does, the first strictly fastest
 * with its attained SLO multiple (Fig. 2's "2x" annotations).
 */
template <typename Run>
class Selector
{
  public:
    explicit Selector(double target) : target_(target) {}

    void
    offer(const Candidate<Run> &c)
    {
        if (c.spu <= target_ && (!haveCompliant_ || c.epu < best_.epu)) {
            best_ = c;
            haveCompliant_ = true;
        }
        if (fastest_.spu == 0 || c.spu < fastest_.spu)
            fastest_ = c;
    }

    /** The winner; valid once a candidate has been offered. */
    const Candidate<Run> &
    winner() const
    {
        return haveCompliant_ ? best_ : fastest_;
    }

    double
    sloRatio() const
    {
        return haveCompliant_ ? 1.0 : std::ceil(fastest_.spu / target_);
    }

    /** The search's result, whose winning simulation is @p report. */
    SloResult
    result(WorkloadReport report) const
    {
        SloResult res;
        res.setup = winner().setup;
        res.secondsPerUnit = winner().spu;
        res.energyPerUnit = winner().epu;
        res.sloRatio = sloRatio();
        res.report = std::move(report);
        return res;
    }

  private:
    double target_;
    bool haveCompliant_ = false;
    Candidate<Run> best_;
    Candidate<Run> fastest_;
};

/** Execute @p setup of @p c's scenario on @p gen, as a candidate. */
Candidate<ExecutionPtr>
executeCandidate(const SweepCase &c, arch::NpuGeneration gen,
                 const models::RunSetup &setup)
{
    Execution ex = executeCase(*c.scenario, gen, setup);
    auto run = std::make_shared<const WorkloadRun>(std::move(ex.run));
    // The selection reads only the NoPG result, so a report with no
    // gated results measures a candidate with WorkloadReport's own
    // arithmetic.
    auto rep = makeReport(c.scenario, gen, setup, {}, run, {});
    return measured(rep, std::make_shared<const Executed>(Executed{
                             std::move(run), std::move(ex.blocks)}));
}

/** The SLO anchor: @p c's NPU-D default setup, executed. */
Candidate<ExecutionPtr>
executeAnchor(const SweepCase &c)
{
    return executeCandidate(
        c, arch::NpuGeneration::D,
        models::defaultScenarioSetup(*c.scenario, arch::NpuGeneration::D));
}

/** The 1x SLO: 5x the anchor's latency (§3). */
double
targetOf(const Candidate<ExecutionPtr> &anchor)
{
    return 5.0 * anchor.spu;
}

/**
 * Execute @p c's candidates on its generation in order and select;
 * the candidate equal to the @p anchor reuses its execution.
 */
Selector<ExecutionPtr>
selectOn(const SweepCase &c, const Candidate<ExecutionPtr> &anchor)
{
    auto setups = candidateSetups(*c.scenario, c.gen);
    REGATE_CHECK(!setups.empty(), "no candidate setups");
    Selector<ExecutionPtr> sel(targetOf(anchor));
    for (const auto &setup : setups) {
        bool is_anchor =
            c.gen == arch::NpuGeneration::D && setup == anchor.setup;
        sel.offer(is_anchor ? anchor : executeCandidate(c, c.gen, setup));
    }
    return sel;
}

/** Evaluate @p sel's winner under @p c's gating params. */
SloResult
evaluateWinner(const Selector<ExecutionPtr> &sel, const SweepCase &c)
{
    const auto &winner = sel.winner();
    return sel.result(makeReport(
        c.scenario, c.gen, winner.setup, c.params, winner.run->run,
        evaluateCase(*c.scenario, c.gen, c.params, *winner.run->run,
                     winner.run->blocks)));
}

/** The search of one case; a ConfigError propagates. */
SloResult
searchOne(const SweepCase &c)
{
    auto anchor = executeAnchor(c);
    return evaluateWinner(selectOn(c, anchor), c);
}

/** The serial reference: everything simulated from scratch. */
SloResult
searchSerial(const SweepCase &c)
{
    auto simulate = [&](arch::NpuGeneration gen,
                        const models::RunSetup *setup) {
        return simulateScenario(c.scenario, gen, c.params, setup);
    };
    double target =
        5.0 * secondsPerUnit(simulate(arch::NpuGeneration::D, nullptr));
    auto setups = candidateSetups(*c.scenario, c.gen);
    REGATE_CHECK(!setups.empty(), "no candidate setups");
    Selector<WorkloadReport> sel(target);
    for (const auto &setup : setups) {
        auto rep = simulate(c.gen, &setup);
        sel.offer(measured(rep, rep));
    }
    return sel.result(sel.winner().run);
}

SweepCase
specCase(std::shared_ptr<const models::ScenarioSpec> spec,
         arch::NpuGeneration gen, const arch::GatingParams &params)
{
    REGATE_CHECK(spec, "null scenario spec");
    SweepCase c;
    c.scenario = std::move(spec);
    c.gen = gen;
    c.params = params;
    return c;
}

}  // namespace

double
sloTargetSecondsPerUnit(
    const std::shared_ptr<const models::ScenarioSpec> &spec)
{
    return targetOf(executeAnchor(specCase(spec, {}, {})));
}

SloResult
findBestSetup(std::shared_ptr<const models::ScenarioSpec> spec,
              arch::NpuGeneration gen, const arch::GatingParams &params)
{
    return searchOne(specCase(std::move(spec), gen, params));
}

SloResult
findBestSetupSerial(std::shared_ptr<const models::ScenarioSpec> spec,
                    arch::NpuGeneration gen,
                    const arch::GatingParams &params)
{
    return searchSerial(specCase(std::move(spec), gen, params));
}

std::vector<SloResult>
searchSameIdentity(const std::vector<const SweepCase *> &cases)
{
    std::vector<SloResult> out(cases.size());
    auto fail = [&](std::size_t i, const ConfigError &e) {
        out[i].error = e.what();
        out[i].report.scenario = cases[i]->scenario;
        out[i].report.gen = cases[i]->gen;
    };
    if (cases.empty())
        return out;

    std::optional<Candidate<ExecutionPtr>> anchor;
    try {
        anchor = executeAnchor(*cases.front());
    } catch (const ConfigError &e) {
        for (std::size_t i = 0; i < cases.size(); ++i)
            fail(i, e);
        return out;
    }

    // One selection per generation, shared by the cases on it (stably
    // sorted, so each generation's cases stay in input order).
    std::vector<std::size_t> order(cases.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return cases[a]->gen < cases[b]->gen;
                     });
    for (std::size_t m = 0; m < order.size();) {
        std::size_t end = m;
        while (end < order.size() &&
               cases[order[end]]->gen == cases[order[m]]->gen)
            ++end;
        try {
            auto sel = selectOn(*cases[order[m]], *anchor);
            for (; m < end; ++m)
                out[order[m]] = evaluateWinner(sel, *cases[order[m]]);
        } catch (const ConfigError &e) {
            for (; m < end; ++m)
                fail(order[m], e);
        }
    }
    return out;
}

SloResult
findBestSetup(models::Workload workload, arch::NpuGeneration gen,
              const arch::GatingParams &params)
{
    return findBestSetup(models::builtinScenario(workload), gen, params);
}

SloResult
findBestSetupSerial(models::Workload workload, arch::NpuGeneration gen,
                    const arch::GatingParams &params)
{
    return findBestSetupSerial(models::builtinScenario(workload), gen,
                               params);
}

std::vector<models::RunSetup>
candidateSetups(models::Workload workload, arch::NpuGeneration gen)
{
    return candidateSetups(*models::builtinScenario(workload), gen);
}

}  // namespace sim
}  // namespace regate
