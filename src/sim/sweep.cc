#include "sim/sweep.h"

#include <algorithm>
#include <compare>
#include <numeric>
#include <tuple>
#include <utility>

#include "common/error.h"
#include "models/registry.h"
#include "obs/trace.h"

namespace regate {
namespace sim {

namespace {

/** What a case's graph build, compile and execution read. */
struct ExecutionKey
{
    const models::ScenarioSpec *spec;
    arch::NpuGeneration gen;
    models::RunSetup setup;  ///< Resolved: the override or default.
};

ExecutionKey
executionKey(const SweepCase &c)
{
    models::RunSetup setup =
        c.hasSetup ? c.setup
                   : models::defaultScenarioSetup(*c.scenario, c.gen);
    return {c.scenario.get(), c.gen, setup};
}

/**
 * Strict weak order over execution keys; keys neither before the other
 * execute identically. A scenario's name, unit and gating overrides
 * are left out: the graph builders do not read them.
 */
bool
executesBefore(const ExecutionKey &a, const ExecutionKey &b)
{
    if (a.spec != b.spec) {
        const auto &x = *a.spec;
        const auto &y = *b.spec;
        auto order = std::tie(x.family, x.model, x.seqLen, x.outLen,
                              x.extra) <=>
                     std::tie(y.family, y.model, y.seqLen, y.outLen,
                              y.extra);
        if (order != 0)
            return order < 0;
    }
    const auto &sa = a.setup;
    const auto &sb = b.setup;
    return std::tie(a.gen, sa.chips, sa.batch, sa.par.dp, sa.par.tp,
                    sa.par.pp) < std::tie(b.gen, sb.chips, sb.batch,
                                          sb.par.dp, sb.par.tp,
                                          sb.par.pp);
}

/**
 * Strict weak order over what an SLO search reads of a case besides
 * its generation and gating params: every spec field but the display
 * name and the gating overrides.
 */
bool
identityBefore(const SweepCase &a, const SweepCase &b)
{
    if (a.scenario == b.scenario)
        return false;
    const auto &x = *a.scenario;
    const auto &y = *b.scenario;
    return std::tie(x.family, x.model, x.batch, x.chips, x.seqLen,
                    x.outLen, x.parSet, x.par.dp, x.par.tp, x.par.pp,
                    x.unit, x.extra) <
           std::tie(y.family, y.model, y.batch, y.chips, y.seqLen,
                    y.outLen, y.parSet, y.par.dp, y.par.tp, y.par.pp,
                    y.unit, y.extra);
}

/** LogicError naming the first case of @p cases without a scenario. */
void
requireScenarios(const std::vector<SweepCase> &cases)
{
    for (std::size_t i = 0; i < cases.size(); ++i)
        REGATE_ASSERT(cases[i].scenario, "sweep case ", i,
                      " has no scenario");
}

/**
 * Sort the indices of @p n cases stably by @p before (so each group
 * lists its cases in input order) and cut where the order changes:
 * returns the sorted indices and each group's first position in them,
 * followed by @p n.
 */
template <typename Before>
std::pair<std::vector<std::size_t>, std::vector<std::size_t>>
groupCases(std::size_t n, Before before)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), before);
    std::vector<std::size_t> group_start;
    for (std::size_t m = 0; m < n; ++m) {
        if (m == 0 || before(order[m - 1], order[m]))
            group_start.push_back(m);
    }
    group_start.push_back(n);
    return {std::move(order), std::move(group_start)};
}

}  // namespace

void
applyScenarioGating(arch::GatingParams *params,
                    const models::ScenarioSpec &spec)
{
    auto ratios = params->ratios();
    for (const auto &[key, value] : spec.gating) {
        if (key == "logic_off")
            ratios.logicOff = value;
        else if (key == "sram_sleep")
            ratios.sramSleep = value;
        else if (key == "sram_off")
            ratios.sramOff = value;
    }
    params->setRatios(ratios);
    for (const auto &[key, value] : spec.gating) {
        if (key == "delay_scale")
            params->setDelayScale(value);
    }
}

SweepCase
scenarioCase(std::shared_ptr<const models::ScenarioSpec> spec,
             arch::NpuGeneration gen, const arch::GatingParams &params)
{
    REGATE_CHECK(spec, "null scenario spec");
    SweepCase c;
    c.gen = gen;
    c.params = params;
    applyScenarioGating(&c.params, *spec);
    // A spec identical to a paper workload runs as that workload's
    // row, so its output is the default run's. Gating overrides ride
    // in c.params either way.
    auto row = models::builtinScenarioOf(*spec);
    c.scenario = row ? std::move(row) : std::move(spec);
    return c;
}

std::vector<SweepCase>
scenarioGrid(
    const std::vector<std::shared_ptr<const models::ScenarioSpec>>
        &scenarios,
    const std::vector<arch::NpuGeneration> &gens,
    const arch::GatingParams &params)
{
    std::vector<SweepCase> grid;
    grid.reserve(scenarios.size() * gens.size());
    for (const auto &spec : scenarios) {
        for (auto gen : gens)
            grid.push_back(scenarioCase(spec, gen, params));
    }
    return grid;
}

SweepRunner::SweepRunner(unsigned threads)
    : threads_(threads ? threads : ThreadPool::envThreadCount()),
      automatic_(threads_ == 0)
{
    if (automatic_)
        threads_ = ThreadPool::defaultThreadCount();
}

template <typename Fn>
void
SweepRunner::forEachGroup(std::size_t groups, std::size_t cases, Fn &&fn)
{
    if (automatic_ && cases < kMinParallelCases) {
        for (std::size_t g = 0; g < groups; ++g)
            fn(g);
        return;
    }
    std::call_once(poolStarted_, [this] {
        pool_ = std::make_unique<ThreadPool>(threads_);
    });
    parallelFor(*pool_, groups, std::forward<Fn>(fn));
}

std::vector<WorkloadReport>
SweepRunner::run(const std::vector<SweepCase> &cases)
{
    requireScenarios(cases);
    // Group the cases that share one execution.
    std::vector<ExecutionKey> keys;
    keys.reserve(cases.size());
    for (const auto &c : cases)
        keys.push_back(executionKey(c));
    auto [order, group_start] =
        groupCases(cases.size(), [&](std::size_t a, std::size_t b) {
            return executesBefore(keys[a], keys[b]);
        });

    // One task per group: build, compile and execute once, then
    // evaluate every case under its own gating params. Every report of
    // the group shares the one run; the blocks die with the task.
    std::vector<WorkloadReport> out(cases.size());
    forEachGroup(group_start.size() - 1, cases.size(), [&](std::size_t g) {
        std::size_t first = group_start[g];
        std::size_t last = group_start[g + 1];
        const ExecutionKey &key = keys[order[first]];
        Execution ex = executeCase(*key.spec, key.gen, key.setup);
        auto run = std::make_shared<const WorkloadRun>(std::move(ex.run));
        const auto &cfg = arch::npuConfig(key.gen);
        for (std::size_t m = first; m < last; ++m) {
            const SweepCase &c = cases[order[m]];
            obs::TraceRecorder::Span span("engine.evaluate", "sim");
            out[order[m]] = makeReport(
                c.scenario, c.gen, key.setup, c.params, run,
                Engine(cfg, c.params).evaluateGated(*run, ex.blocks));
        }
    });
    return out;
}

std::vector<SloResult>
SweepRunner::search(const std::vector<SweepCase> &cases)
{
    requireScenarios(cases);
    // One task per scenario identity: searchSameIdentity executes its
    // anchor and each generation's candidates once for all its cases.
    auto [order, group_start] =
        groupCases(cases.size(), [&](std::size_t a, std::size_t b) {
            return identityBefore(cases[a], cases[b]);
        });
    std::vector<SloResult> out(cases.size());
    forEachGroup(group_start.size() - 1, cases.size(), [&](std::size_t g) {
        std::vector<const SweepCase *> group;
        for (std::size_t m = group_start[g]; m < group_start[g + 1]; ++m)
            group.push_back(&cases[order[m]]);
        auto results = searchSameIdentity(group);
        for (std::size_t k = 0; k < results.size(); ++k)
            out[order[group_start[g] + k]] = std::move(results[k]);
    });
    return out;
}

std::vector<WorkloadReport>
SweepRunner::runSerial(const std::vector<SweepCase> &cases)
{
    std::vector<WorkloadReport> out;
    out.reserve(cases.size());
    for (const auto &c : cases)
        out.push_back(simulateScenario(c.scenario, c.gen, c.params,
                                       c.hasSetup ? &c.setup : nullptr));
    return out;
}

std::vector<SweepCase>
makeGrid(const std::vector<models::Workload> &workloads,
         const std::vector<arch::NpuGeneration> &gens,
         const arch::GatingParams &params)
{
    std::vector<SweepCase> grid;
    grid.reserve(workloads.size() * gens.size());
    for (auto w : workloads) {
        for (auto gen : gens) {
            SweepCase c;
            c.scenario = models::builtinScenario(w);
            c.workload = w;
            c.gen = gen;
            c.params = params;
            grid.push_back(std::move(c));
        }
    }
    return grid;
}

}  // namespace sim
}  // namespace regate
