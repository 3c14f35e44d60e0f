#include "sim/sweep.h"

#include <algorithm>
#include <compare>
#include <numeric>
#include <tuple>

#include "common/error.h"
#include "models/registry.h"
#include "obs/trace.h"

namespace regate {
namespace sim {

namespace {

WorkloadReport
simulateCase(const SweepCase &c)
{
    if (c.scenario)
        return simulateScenario(c.scenario, c.gen, c.params,
                                c.hasSetup ? &c.setup : nullptr);
    return simulateWorkload(c.workload, c.gen, c.params,
                            c.hasSetup ? &c.setup : nullptr);
}

/** What a case's graph build, compile and execution read. */
struct ExecutionKey
{
    const models::ScenarioSpec *spec;  ///< Null on the enum path.
    models::Workload workload;
    arch::NpuGeneration gen;
    models::RunSetup setup;  ///< Resolved: the override or default.
};

ExecutionKey
executionKey(const SweepCase &c)
{
    models::RunSetup setup =
        c.hasSetup ? c.setup
        : c.scenario ? models::defaultScenarioSetup(*c.scenario, c.gen)
                     : models::defaultSetup(c.workload, c.gen);
    return {c.scenario.get(), c.workload, c.gen, setup};
}

/**
 * Strict weak order over execution keys; keys neither before the other
 * execute identically. A scenario's name, unit and gating overrides
 * are left out: the graph builders do not read them.
 */
bool
executesBefore(const ExecutionKey &a, const ExecutionKey &b)
{
    if (a.spec && b.spec) {
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
    } else if (a.spec || b.spec) {
        return !a.spec;  // Enum-path cases sort first.
    } else if (a.workload != b.workload) {
        return a.workload < b.workload;
    }
    const auto &sa = a.setup;
    const auto &sb = b.setup;
    return std::tie(a.gen, sa.chips, sa.batch, sa.par.dp, sa.par.tp,
                    sa.par.pp) < std::tie(b.gen, sb.chips, sb.batch,
                                          sb.par.dp, sb.par.tp,
                                          sb.par.pp);
}

}  // namespace

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
            c.workload = w;
            c.gen = gen;
            c.params = params;
            grid.push_back(std::move(c));
        }
    }
    return grid;
}

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
    // A spec identical to a paper workload runs as that workload:
    // the case (and therefore any golden comparison) is
    // byte-identical to the enum-driven grid. Gating overrides ride
    // in c.params either way.
    models::Workload w;
    if (models::builtinWorkloadOf(*spec, &w)) {
        c.workload = w;
        return c;
    }
    c.scenario = std::move(spec);
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

std::vector<WorkloadReport>
SweepRunner::run(const std::vector<SweepCase> &cases)
{
    // Group the cases that share one execution: sort case indices by
    // execution key (stably, so each group lists its cases in input
    // order) and cut where the key changes.
    std::vector<ExecutionKey> keys;
    keys.reserve(cases.size());
    for (const auto &c : cases)
        keys.push_back(executionKey(c));
    std::vector<std::size_t> order(cases.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return executesBefore(keys[a], keys[b]);
                     });
    std::vector<std::size_t> group_start;
    for (std::size_t m = 0; m < order.size(); ++m) {
        if (m == 0 || executesBefore(keys[order[m - 1]], keys[order[m]]))
            group_start.push_back(m);
    }
    group_start.push_back(order.size());

    // One task per group: build, compile and execute once, then
    // evaluate every case under its own gating params. The last case
    // takes the execution's run instead of a copy.
    std::vector<WorkloadReport> out(cases.size());
    parallelFor(pool_, group_start.size() - 1, [&](std::size_t g) {
        std::size_t first = group_start[g];
        std::size_t last = group_start[g + 1];
        const ExecutionKey &key = keys[order[first]];
        Execution ex =
            executeCase(key.workload, key.spec, key.gen, key.setup);
        const auto &cfg = arch::npuConfig(key.gen);
        for (std::size_t m = first; m < last; ++m) {
            const SweepCase &c = cases[order[m]];
            obs::TraceRecorder::Span span("engine.evaluate", "sim");
            Engine engine(cfg, c.params);
            out[order[m]] = makeReport(
                c.workload, c.scenario, c.gen, key.setup, c.params,
                m + 1 < last ? engine.evaluate(ex)
                             : engine.evaluate(std::move(ex)));
        }
    });
    return out;
}

std::vector<SloResult>
SweepRunner::search(const std::vector<SweepCase> &cases)
{
    return parallelMapOrdered(pool_, cases, [](const SweepCase &c) {
        try {
            if (c.scenario)
                return findBestSetup(c.scenario, c.gen, c.params);
            return findBestSetup(c.workload, c.gen, c.params);
        } catch (const ConfigError &e) {
            SloResult failed;
            failed.error = e.what();
            failed.report.workload = c.workload;
            failed.report.scenario = c.scenario;
            failed.report.gen = c.gen;
            return failed;
        }
    });
}

std::vector<WorkloadReport>
SweepRunner::runSerial(const std::vector<SweepCase> &cases)
{
    std::vector<WorkloadReport> out;
    out.reserve(cases.size());
    for (const auto &c : cases)
        out.push_back(simulateCase(c));
    return out;
}

}  // namespace sim
}  // namespace regate
