#include "sim/sweep.h"

#include "common/error.h"

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
    return parallelMapOrdered(pool_, cases, simulateCase);
}

std::vector<SloResult>
SweepRunner::search(const std::vector<SweepCase> &cases)
{
    return parallelMapOrdered(pool_, cases, [](const SweepCase &c) {
        if (c.scenario)
            return findBestSetup(c.scenario, c.gen, c.params);
        return findBestSetup(c.workload, c.gen, c.params);
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
