/**
 * @file
 * Tests for the carbon model (§6.6): operational carbon reduction
 * exceeds busy-energy savings, and power gating extends the optimal
 * device lifespan (Fig. 24/25).
 */

#include <gtest/gtest.h>

#include "common/error.h"

#include "carbon/carbon_model.h"
#include "carbon/lifespan.h"

namespace regate {
namespace carbon {
namespace {

using arch::NpuGeneration;
using models::builtinScenario;
using models::Workload;
using sim::Policy;

TEST(Carbon, OperationalCarbonPositive)
{
    auto rep = sim::simulateScenario(builtinScenario(Workload::DlrmL),
                                     NpuGeneration::D);
    EXPECT_GT(operationalCarbonPerRun(rep, Policy::NoPG), 0.0);
    EXPECT_GT(operationalCarbonPerUnit(rep, Policy::NoPG), 0.0);
}

TEST(Carbon, ReductionExceedsBusySavings)
{
    // Fig. 24: carbon reductions (31%-63%) are much higher than the
    // energy savings because idle chips are almost pure static power.
    auto rep = sim::simulateScenario(builtinScenario(Workload::Prefill405B),
                                     NpuGeneration::D);
    double busy_saving = rep.savingVsNoPg(Policy::Full);
    double carbon_red =
        operationalCarbonReduction(rep, Policy::Full);
    EXPECT_GT(carbon_red, busy_saving);
    EXPECT_GT(carbon_red, 0.15);
    EXPECT_LT(carbon_red, 0.70);
}

TEST(Carbon, ReductionOrderingAcrossPolicies)
{
    auto rep = sim::simulateScenario(builtinScenario(Workload::DiTXL),
                                     NpuGeneration::D);
    double base = operationalCarbonReduction(rep, Policy::Base);
    double full = operationalCarbonReduction(rep, Policy::Full);
    double ideal = operationalCarbonReduction(rep, Policy::Ideal);
    EXPECT_GT(base, 0.0);
    EXPECT_GE(full, base);
    EXPECT_GE(ideal, full);
}

TEST(Carbon, AnnualEfficiencyFactorInRange)
{
    double f = annualEfficiencyFactor(builtinScenario(Workload::Prefill8B));
    EXPECT_GT(f, 0.5);
    EXPECT_LT(f, 1.0);
}

TEST(Lifespan, EmbodiedAmortizesWithLongerLife)
{
    auto rep = sim::simulateScenario(builtinScenario(Workload::DlrmL),
                                     NpuGeneration::D);
    auto an = analyzeLifespan(rep, Policy::NoPG, 0.9);
    ASSERT_EQ(an.points.size(), 10u);
    for (std::size_t i = 1; i < an.points.size(); ++i) {
        EXPECT_LT(an.points[i].embodiedPerUnit,
                  an.points[i - 1].embodiedPerUnit);
        // Older fleets burn relatively more operational carbon.
        EXPECT_GE(an.points[i].operationalPerUnit,
                  an.points[i - 1].operationalPerUnit - 1e-15);
    }
}

TEST(Lifespan, OptimumIsInterior)
{
    auto rep = sim::simulateScenario(builtinScenario(Workload::Train405B),
                                     NpuGeneration::D);
    auto an = analyzeLifespan(rep, Policy::NoPG, 0.85);
    EXPECT_GE(an.optimalYears, 1);
    EXPECT_LE(an.optimalYears, 10);
}

TEST(Lifespan, GatingExtendsOptimalLifespan)
{
    // Fig. 25: ReGate shifts the optimum to longer lifespans (or at
    // least never shortens it) because the operational term shrinks.
    for (auto w : {Workload::Train405B, Workload::DlrmL,
                   Workload::DiTXL}) {
        auto rep = sim::simulateScenario(builtinScenario(w), NpuGeneration::D);
        auto nopg = analyzeLifespan(rep, Policy::NoPG, 0.85);
        auto full = analyzeLifespan(rep, Policy::Full, 0.85);
        EXPECT_GE(full.optimalYears, nopg.optimalYears)
            << models::workloadName(w);
    }
}

TEST(Lifespan, TotalIsSumOfParts)
{
    auto rep = sim::simulateScenario(builtinScenario(Workload::DlrmS),
                                     NpuGeneration::D);
    auto an = analyzeLifespan(rep, Policy::Full, 0.9, 5);
    for (const auto &pt : an.points) {
        EXPECT_NEAR(pt.totalPerUnit(),
                    pt.embodiedPerUnit + pt.operationalPerUnit,
                    1e-18);
    }
}

TEST(Lifespan, Validation)
{
    auto rep = sim::simulateScenario(builtinScenario(Workload::DlrmS),
                                     NpuGeneration::D);
    EXPECT_THROW(analyzeLifespan(rep, Policy::NoPG, 1.5),
                 ConfigError);
    EXPECT_THROW(analyzeLifespan(rep, Policy::NoPG, 0.9, 0),
                 ConfigError);
}

}  // namespace
}  // namespace carbon
}  // namespace regate
