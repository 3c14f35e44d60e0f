#include "carbon/lifespan.h"

#include <cmath>
#include <limits>

#include "common/error.h"

namespace regate {
namespace carbon {

double
annualEfficiencyFactor(std::shared_ptr<const models::ScenarioSpec> spec)
{
    double e_c = sim::simulateScenario(spec, arch::NpuGeneration::C)
                     .energyPerUnit(sim::Policy::NoPG);
    double e_d = sim::simulateScenario(spec, arch::NpuGeneration::D)
                     .energyPerUnit(sim::Policy::NoPG);
    int years = arch::npuConfig(arch::NpuGeneration::D).deploymentYear -
                arch::npuConfig(arch::NpuGeneration::C).deploymentYear;
    REGATE_ASSERT(years > 0, "generation years out of order");
    double total = e_d / e_c;
    // Clamp: a regression would imply no reason to ever upgrade.
    total = std::min(total, 0.999);
    return std::pow(total, 1.0 / years);
}

double
annualEfficiencyFactor(models::Workload workload)
{
    return annualEfficiencyFactor(models::builtinScenario(workload));
}

LifespanAnalysis
analyzeLifespan(const sim::WorkloadReport &rep, sim::Policy policy,
                double annual_factor, int horizon_years,
                const CarbonParams &params)
{
    REGATE_CHECK(annual_factor > 0 && annual_factor < 1,
                 "annual efficiency factor must be in (0, 1), got ",
                 annual_factor);
    REGATE_CHECK(horizon_years >= 1, "empty horizon");

    // Work delivered per year by the pod at the configured duty cycle.
    double run_seconds = rep.result(policy).seconds;
    double runs_per_year = 365.25 * 86400.0 *
                           params.fleet.dutyCycle / run_seconds;
    double units_per_year = runs_per_year * rep.units;
    double embodied_total =
        params.embodiedKgPerChip * rep.setup.chips;
    double op_per_unit_now =
        operationalCarbonPerUnit(rep, policy, params);

    LifespanAnalysis out;
    double best = std::numeric_limits<double>::infinity();
    for (int life = 1; life <= horizon_years; ++life) {
        LifespanPoint pt;
        pt.lifespanYears = life;
        pt.embodiedPerUnit = embodied_total / (units_per_year * life);

        // Average operational carbon per unit over the horizon:
        // fleets are replaced every `life` years; a fleet bought in
        // year y runs at year-y efficiency for the years it covers
        // (the last fleet may be truncated by the horizon).
        double acc = 0;
        for (int y = 0; y < horizon_years; y += life) {
            int covered = std::min(life, horizon_years - y);
            acc += op_per_unit_now * std::pow(annual_factor, y) *
                   covered;
        }
        pt.operationalPerUnit = acc / horizon_years;

        if (pt.totalPerUnit() < best) {
            best = pt.totalPerUnit();
            out.optimalYears = life;
        }
        out.points.push_back(pt);
    }
    return out;
}

}  // namespace carbon
}  // namespace regate
