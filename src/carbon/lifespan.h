/**
 * @file
 * Device-lifespan optimization (§6.6, Fig. 25): total carbon per work
 * unit over a 10-year horizon as a function of the fleet upgrade
 * cadence, assuming per-unit energy improves each year at the
 * NPU-C -> NPU-D generational rate. Frequent upgrades pay embodied
 * carbon; long lifespans pay the operational carbon of stale chips.
 * Power gating shrinks the operational term, shifting the optimum to
 * longer lifespans.
 */

#ifndef REGATE_CARBON_LIFESPAN_H
#define REGATE_CARBON_LIFESPAN_H

#include <vector>

#include "carbon/carbon_model.h"

namespace regate {
namespace carbon {

/** Carbon per work unit for one candidate lifespan. */
struct LifespanPoint
{
    int lifespanYears = 0;
    double embodiedPerUnit = 0;     ///< kgCO2e per unit.
    double operationalPerUnit = 0;  ///< kgCO2e per unit.
    double totalPerUnit() const
    {
        return embodiedPerUnit + operationalPerUnit;
    }
};

/** Sweep result for one workload/policy. */
struct LifespanAnalysis
{
    std::vector<LifespanPoint> points;  ///< Lifespans 1..horizon.
    int optimalYears = 0;               ///< Argmin of totalPerUnit.
};

/**
 * Annual per-unit energy improvement factor implied by the NPU-C ->
 * NPU-D transition for @p spec (3 deployment years apart). Returns
 * f < 1 such that next year's energy/unit = f * this year's.
 */
double annualEfficiencyFactor(
    std::shared_ptr<const models::ScenarioSpec> spec);

/**
 * Sweep lifespans 1..@p horizon_years for @p rep under @p policy.
 * @p annual_factor as from annualEfficiencyFactor().
 */
LifespanAnalysis analyzeLifespan(const sim::WorkloadReport &rep,
                                 sim::Policy policy,
                                 double annual_factor,
                                 int horizon_years = 10,
                                 const CarbonParams &params = {});

// Kept only because perfbench/layer_trace.cc calls it. It goes with
// that tracer (ROADMAP item 6).

/** annualEfficiencyFactor of @p workload's models::paperSuite() row. */
double annualEfficiencyFactor(models::Workload workload);

}  // namespace carbon
}  // namespace regate

#endif  // REGATE_CARBON_LIFESPAN_H
