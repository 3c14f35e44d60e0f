#include "sim/report.h"

#include "common/checked.h"
#include "common/error.h"
#include "compiler/compiler.h"
#include "models/registry.h"
#include "obs/trace.h"

namespace regate {
namespace sim {

namespace {

/** @p e prefixed with the case it occurred in. */
OverflowError
inCase(const OverflowError &e, const models::ScenarioSpec &spec,
       arch::NpuGeneration gen)
{
    return e.within("scenario '" + spec.name + "' on " +
                    arch::npuConfig(gen).name);
}

}  // namespace

const WorkloadRun &
WorkloadReport::execution() const
{
    REGATE_ASSERT(run_, "report has no simulation");
    return *run_;
}

const PolicyResult &
WorkloadReport::result(Policy p) const
{
    for (std::size_t i = 0; i < kGatedPolicies.size(); ++i) {
        if (kGatedPolicies[i] == p) {
            REGATE_ASSERT(gated_[i].policy == p, policyName(p),
                          " was not evaluated on this report");
            return gated_[i];
        }
    }
    return execution().result(p);
}

double
WorkloadReport::savingVsNoPg(Policy p) const
{
    return savingVs(result(Policy::NoPG), result(p));
}

double
WorkloadReport::podBusyEnergy(Policy p) const
{
    return result(p).energy.busyTotal() * setup.chips;
}

double
WorkloadReport::idleSeconds(Policy p, const FleetParams &fleet) const
{
    REGATE_CHECK(fleet.dutyCycle > 0 && fleet.dutyCycle <= 1,
                 "duty cycle out of (0, 1]: ", fleet.dutyCycle);
    return result(p).seconds * (1.0 - fleet.dutyCycle) /
           fleet.dutyCycle;
}

double
WorkloadReport::idlePowerW(Policy p) const
{
    energy::PowerModel power(config());
    return idleStaticPower(power, params_, p);
}

double
WorkloadReport::podTotalEnergy(Policy p, const FleetParams &fleet) const
{
    double idle = idlePowerW(p) * idleSeconds(p, fleet) * setup.chips;
    return (podBusyEnergy(p) + idle) * fleet.pue;
}

double
WorkloadReport::energyPerUnit(Policy p, const FleetParams &fleet) const
{
    REGATE_CHECK(units > 0, "report has no work units");
    return podTotalEnergy(p, fleet) / units;
}

double
WorkloadReport::idleShare(Policy p, const FleetParams &fleet) const
{
    double idle =
        idlePowerW(p) * idleSeconds(p, fleet) * setup.chips * fleet.pue;
    return idle / podTotalEnergy(p, fleet);
}

const arch::NpuConfig &
WorkloadReport::config() const
{
    return arch::npuConfig(gen);
}

Execution
executeCase(const models::ScenarioSpec &spec, arch::NpuGeneration gen,
            const models::RunSetup &setup)
{
    const auto &cfg = arch::npuConfig(gen);
    auto compiled = [&] {
        obs::TraceRecorder::Span span("graph.build_compile", "sim");
        return compiler::compileGraph(
            models::buildScenarioGraph(spec, setup), cfg);
    }();
    obs::TraceRecorder::Span span("engine.execute", "sim");
    try {
        return Engine(cfg).execute(compiled.graph, setup.chips);
    } catch (const OverflowError &e) {
        throw inCase(e, spec, gen);
    }
}

GatedResults
evaluateCase(const models::ScenarioSpec &spec, arch::NpuGeneration gen,
             const arch::GatingParams &params, const WorkloadRun &run,
             const std::vector<Execution::Block> &blocks, GatedMemo *memo)
{
    obs::TraceRecorder::Span span("engine.evaluate", "sim");
    try {
        return Engine(arch::npuConfig(gen), params)
            .evaluateGated(run, blocks, memo);
    } catch (const OverflowError &e) {
        throw inCase(e, spec, gen);
    }
}

WorkloadReport
makeReport(std::shared_ptr<const models::ScenarioSpec> spec,
           arch::NpuGeneration gen, const models::RunSetup &setup,
           const arch::GatingParams &params,
           std::shared_ptr<const WorkloadRun> run,
           const GatedResults &gated)
{
    WorkloadReport rep;
    rep.scenario = std::move(spec);
    rep.gen = gen;
    rep.setup = setup;
    rep.units = models::scenarioUnitsPerRun(*rep.scenario, setup);
    rep.run_ = std::move(run);
    rep.gated_ = gated;
    rep.params_ = params;
    return rep;
}

WorkloadReport
simulateScenario(std::shared_ptr<const models::ScenarioSpec> spec,
                 arch::NpuGeneration gen,
                 const arch::GatingParams &params,
                 const models::RunSetup *setup_override)
{
    REGATE_CHECK(spec, "null scenario spec");
    auto setup = setup_override
                     ? *setup_override
                     : models::defaultScenarioSetup(*spec, gen);
    auto ex = executeCase(*spec, gen, setup);
    auto run = std::make_shared<const WorkloadRun>(std::move(ex.run));
    auto gated = evaluateCase(*spec, gen, params, *run, ex.blocks);
    return makeReport(std::move(spec), gen, setup, params, std::move(run),
                      gated);
}

void
clearSharedCaches()
{
}

WorkloadReport
simulateWorkload(models::Workload workload, arch::NpuGeneration gen,
                 const arch::GatingParams &params,
                 const models::RunSetup *setup_override)
{
    auto rep = simulateScenario(
        models::paperSuite()[static_cast<std::size_t>(workload)], gen,
        params, setup_override);
    rep.workload = workload;
    return rep;
}

}  // namespace sim
}  // namespace regate
