/**
 * @file
 * Tests for the reporting facade: duty-cycle/PUE accounting, idle
 * power per policy, and Fig. 2/3 metrics.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/error.h"

#include "models/spec.h"
#include "sim/report.h"

namespace regate {
namespace sim {
namespace {

using arch::NpuGeneration;
using models::builtinScenario;
using models::Workload;

TEST(Report, IdlePowerOrdering)
{
    energy::PowerModel power(arch::npuConfig(NpuGeneration::D));
    arch::GatingParams params;
    double nopg = idleStaticPower(power, params, Policy::NoPG);
    double base = idleStaticPower(power, params, Policy::Base);
    double full = idleStaticPower(power, params, Policy::Full);
    double ideal = idleStaticPower(power, params, Policy::Ideal);

    EXPECT_GT(nopg, base);
    EXPECT_GT(base, full);
    EXPECT_GT(full, ideal);
    // Ideal still pays "Other" (never gated).
    EXPECT_DOUBLE_EQ(ideal,
                     power.staticPower(arch::Component::Other));
    // NoPG idle power == full chip static power.
    EXPECT_DOUBLE_EQ(nopg, power.totalStaticPower());
}

TEST(Report, IdleShareInPaperBand)
{
    // §3: the idle portion is 17%-32% of total energy at 60% duty
    // cycle without power gating.
    auto rep = simulateScenario(builtinScenario(Workload::Prefill8B),
                                NpuGeneration::D);
    double share = rep.idleShare(Policy::NoPG);
    EXPECT_GE(share, 0.15);
    EXPECT_LE(share, 0.35);
}

TEST(Report, TotalEnergyIncludesIdleAndPue)
{
    auto rep = simulateScenario(builtinScenario(Workload::DlrmS),
                                NpuGeneration::D);
    FleetParams fleet;
    double busy = rep.podBusyEnergy(Policy::NoPG);
    double total = rep.podTotalEnergy(Policy::NoPG, fleet);
    EXPECT_GT(total, busy * fleet.pue);

    FleetParams always_on;
    always_on.dutyCycle = 1.0;
    EXPECT_NEAR(rep.podTotalEnergy(Policy::NoPG, always_on),
                busy * always_on.pue, busy * 0.01);
}

TEST(Report, EnergyPerUnitDecreasesWithGating)
{
    auto rep = simulateScenario(builtinScenario(Workload::DlrmM),
                                NpuGeneration::D);
    EXPECT_LT(rep.energyPerUnit(Policy::Full),
              rep.energyPerUnit(Policy::NoPG));
}

TEST(Report, NewerGenerationsMoreEfficient)
{
    // Fig. 2 trend: NPU-D beats NPU-A on energy per token.
    auto a = simulateScenario(builtinScenario(Workload::Prefill8B),
                              NpuGeneration::A);
    auto d = simulateScenario(builtinScenario(Workload::Prefill8B),
                              NpuGeneration::D);
    EXPECT_LT(d.energyPerUnit(Policy::NoPG),
              a.energyPerUnit(Policy::NoPG));
}

TEST(Report, SetupOverrideRespected)
{
    models::RunSetup setup;
    setup.chips = 1;
    setup.batch = 2;
    setup.par = {1, 1, 1};
    auto rep = simulateScenario(builtinScenario(Workload::Prefill8B),
                                NpuGeneration::D,
                                {}, &setup);
    EXPECT_EQ(rep.setup.chips, 1);
    EXPECT_DOUBLE_EQ(rep.units, 2.0 * models::kPrefillSeqLen);
}

TEST(Report, InvalidFleetParamsRejected)
{
    auto rep = simulateScenario(builtinScenario(Workload::DlrmS),
                                NpuGeneration::D);
    FleetParams bad;
    bad.dutyCycle = 0.0;
    EXPECT_THROW(rep.idleSeconds(Policy::NoPG, bad), ConfigError);
}

TEST(Report, OverflowNamesTheScenarioAndTheOperator)
{
    // Wrapped, its counters print 0.0% for every saving.
    auto spec = models::parseSpecText("@regate-spec v1\n"
                                      "[scenario prefill-seq-1e12]\n"
                                      "family = llama-prefill\n"
                                      "model = 8b\nbatch = 8\n"
                                      "chips = 8\n"
                                      "seq_len = 1000000000000\n")
                    .scenarios.at(0);
    try {
        simulateScenario(spec, NpuGeneration::D);
        ADD_FAILURE() << "seq_len 1e12 simulated";
    } catch (const ConfigError &e) {
        EXPECT_EQ(std::string(e.what()).rfind(
                      "config error: scenario 'prefill-seq-1e12' on "
                      "NPU-D: operator 'qkv_proj': SA ", 0),
                  0u)
            << e.what();
    }
}

}  // namespace
}  // namespace sim
}  // namespace regate
