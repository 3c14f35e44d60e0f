#include "sim/report.h"

#include "common/error.h"
#include "compiler/compiler.h"
#include "models/registry.h"
#include "obs/trace.h"

namespace regate {
namespace sim {

using arch::Component;

double
idleStaticPower(const energy::PowerModel &power,
                const arch::GatingParams &params, Policy policy)
{
    const auto &ratios = params.ratios();
    // "Other" (management, control) stays powered even on an idle
    // chip (§3); everything else gates according to the policy.
    double p = power.staticPower(Component::Other);
    double logic = power.staticPower(Component::Sa) +
                   power.staticPower(Component::Vu) +
                   power.staticPower(Component::Hbm) +
                   power.staticPower(Component::Ici);
    double sram = power.staticPower(Component::Sram);
    switch (policy) {
      case Policy::NoPG:
        p += logic + sram;
        break;
      case Policy::Base:
      case Policy::HW:
        p += logic * ratios.logicOff + sram * ratios.sramSleep;
        break;
      case Policy::Full:
        p += logic * ratios.logicOff + sram * ratios.sramOff;
        break;
      case Policy::Ideal:
        break;
    }
    return p;
}

const WorkloadRun &
WorkloadReport::run() const
{
    // A default-constructed report (no simulation attached yet) reads
    // as an empty run rather than dereferencing null.
    static const WorkloadRun kEmptyRun;
    return run_ ? *run_ : kEmptyRun;
}

double
WorkloadReport::podBusyEnergy(Policy p) const
{
    return run().result(p).energy.busyTotal() * setup.chips;
}

double
WorkloadReport::idleSeconds(Policy p, const FleetParams &fleet) const
{
    REGATE_CHECK(fleet.dutyCycle > 0 && fleet.dutyCycle <= 1,
                 "duty cycle out of (0, 1]: ", fleet.dutyCycle);
    return run().result(p).seconds * (1.0 - fleet.dutyCycle) /
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
    return Engine(cfg).execute(compiled.graph, setup.chips);
}

WorkloadReport
makeReport(std::shared_ptr<const models::ScenarioSpec> spec,
           arch::NpuGeneration gen, const models::RunSetup &setup,
           const arch::GatingParams &params, WorkloadRun run)
{
    WorkloadReport rep;
    rep.scenario = std::move(spec);
    rep.gen = gen;
    rep.setup = setup;
    rep.units = models::scenarioUnitsPerRun(*rep.scenario, setup);
    rep.run_ = std::make_shared<const WorkloadRun>(std::move(run));
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
    obs::TraceRecorder::Span span("engine.evaluate", "sim");
    auto run = Engine(arch::npuConfig(gen), params).evaluate(std::move(ex));
    return makeReport(std::move(spec), gen, setup, params, std::move(run));
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
    auto rep = simulateScenario(models::builtinScenario(workload), gen,
                                params, setup_override);
    rep.workload = workload;
    return rep;
}

}  // namespace sim
}  // namespace regate
