#include "sim/slo.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "common/error.h"
#include "models/registry.h"
#include "obs/trace.h"
#include "sim/sweep.h"

namespace regate {
namespace sim {

std::vector<models::RunSetup>
candidateSetupsFrom(const models::RunSetup &base)
{
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

std::vector<models::RunSetup>
candidateSetups(models::Workload workload, arch::NpuGeneration gen)
{
    return candidateSetupsFrom(models::defaultSetup(workload, gen));
}

std::vector<models::RunSetup>
candidateSetups(const models::ScenarioSpec &spec,
                arch::NpuGeneration gen)
{
    return candidateSetupsFrom(models::defaultScenarioSetup(spec, gen));
}

namespace {

using ExecutionPtr = std::shared_ptr<const Execution>;

double
secondsPerUnit(const WorkloadReport &rep)
{
    return rep.run().result(Policy::NoPG).seconds / rep.units;
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

models::RunSetup
defaultSetupOf(const SweepCase &c, arch::NpuGeneration gen)
{
    return c.scenario ? models::defaultScenarioSetup(*c.scenario, gen)
                      : models::defaultSetup(c.workload, gen);
}

/** Execute @p setup of @p c's scenario on @p gen, as a candidate. */
Candidate<ExecutionPtr>
executeCandidate(const SweepCase &c, arch::NpuGeneration gen,
                 const models::RunSetup &setup)
{
    auto ex = std::make_shared<const Execution>(
        executeCase(c.workload, c.scenario.get(), gen, setup));
    // The selection reads only the NoPG result, so a report over a run
    // that holds nothing but the policy results measures a candidate
    // with WorkloadReport's own arithmetic, without copying the run.
    WorkloadRun results;
    results.policies = ex->run.policies;
    return measured(makeReport(c.workload, c.scenario, gen, setup, {},
                               std::move(results)),
                    std::move(ex));
}

/** The SLO anchor: @p c's NPU-D default setup, executed. */
Candidate<ExecutionPtr>
executeAnchor(const SweepCase &c)
{
    return executeCandidate(c, arch::NpuGeneration::D,
                            defaultSetupOf(c, arch::NpuGeneration::D));
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
    auto setups = candidateSetupsFrom(defaultSetupOf(c, c.gen));
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
    obs::TraceRecorder::Span span("engine.evaluate", "sim");
    Engine engine(arch::npuConfig(c.gen), c.params);
    return sel.result(makeReport(c.workload, c.scenario, c.gen,
                                 winner.setup, c.params,
                                 engine.evaluate(*winner.run)));
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
        return c.scenario
                   ? simulateScenario(c.scenario, gen, c.params, setup)
                   : simulateWorkload(c.workload, gen, c.params, setup);
    };
    double target =
        5.0 * secondsPerUnit(simulate(arch::NpuGeneration::D, nullptr));
    auto setups = c.scenario ? candidateSetups(*c.scenario, c.gen)
                             : candidateSetups(c.workload, c.gen);
    REGATE_CHECK(!setups.empty(), "no candidate setups");
    Selector<WorkloadReport> sel(target);
    for (const auto &setup : setups) {
        auto rep = simulate(c.gen, &setup);
        sel.offer(measured(rep, rep));
    }
    return sel.result(sel.winner().run);
}

SweepCase
workloadCase(models::Workload workload, arch::NpuGeneration gen,
             const arch::GatingParams &params)
{
    SweepCase c;
    c.workload = workload;
    c.gen = gen;
    c.params = params;
    return c;
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
sloTargetSecondsPerUnit(models::Workload workload)
{
    return targetOf(executeAnchor(workloadCase(workload, {}, {})));
}

double
sloTargetSecondsPerUnit(
    const std::shared_ptr<const models::ScenarioSpec> &spec)
{
    return targetOf(executeAnchor(specCase(spec, {}, {})));
}

SloResult
findBestSetup(models::Workload workload, arch::NpuGeneration gen,
              const arch::GatingParams &params)
{
    return searchOne(workloadCase(workload, gen, params));
}

SloResult
findBestSetupSerial(models::Workload workload, arch::NpuGeneration gen,
                    const arch::GatingParams &params)
{
    return searchSerial(workloadCase(workload, gen, params));
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
        out[i].report.workload = cases[i]->workload;
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

}  // namespace sim
}  // namespace regate
