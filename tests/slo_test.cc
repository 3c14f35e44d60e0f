/**
 * @file
 * Tests for the SLO-compliant configuration search (§3, Table 4).
 */

#include <gtest/gtest.h>

#include "sim/slo.h"

namespace regate {
namespace sim {
namespace {

using arch::NpuGeneration;
using models::builtinScenario;

TEST(Slo, TargetIsFiveTimesDefaultLatency)
{
    const auto &dlrm = builtinScenario("DLRM-S");
    auto rep = simulateScenario(dlrm, NpuGeneration::D);
    double default_spu =
        rep.result(Policy::NoPG).seconds / rep.units;
    EXPECT_EQ(sloTargetSecondsPerUnit(dlrm), 5.0 * default_spu);
}

TEST(Slo, CandidatesNonEmptyAndConsistent)
{
    for (auto name : {"DLRM-S", "Llama3-8B-Prefill"}) {
        auto cands =
            candidateSetups(*builtinScenario(name), NpuGeneration::D);
        EXPECT_FALSE(cands.empty());
        for (const auto &s : cands) {
            EXPECT_GE(s.chips, 1);
            EXPECT_GE(s.batch, 1);
            EXPECT_LE(s.par.dp, s.batch);
        }
    }
}

TEST(Slo, NpuDMeetsItsOwnSlo)
{
    const auto &dlrm = builtinScenario("DLRM-S");
    // The SLO is defined from NPU-D's default config at 5x latency:
    // NPU-D itself must comply with ratio 1.
    auto res = findBestSetup(dlrm, NpuGeneration::D);
    EXPECT_DOUBLE_EQ(res.sloRatio, 1.0);
    EXPECT_LE(res.secondsPerUnit,
              sloTargetSecondsPerUnit(dlrm) * 1.0001);
}

TEST(Slo, PicksMostEfficientCompliant)
{
    const auto &dlrm = builtinScenario("DLRM-S");
    auto res = findBestSetup(dlrm, NpuGeneration::D);
    double target = sloTargetSecondsPerUnit(dlrm);
    for (const auto &s : candidateSetups(*dlrm, NpuGeneration::D)) {
        auto rep = simulateScenario(dlrm, NpuGeneration::D, {}, &s);
        double spu = rep.result(Policy::NoPG).seconds / rep.units;
        if (spu <= target) {
            EXPECT_LE(res.energyPerUnit,
                      rep.energyPerUnit(Policy::NoPG) * 1.0001);
        }
    }
}

TEST(Slo, OlderGenerationMayRelax)
{
    // NPU-A on a big model: either compliant or reports a >= 2x
    // relaxed ratio like Fig. 2's bar labels.
    auto res = findBestSetup(builtinScenario("Llama2-13B-Prefill"),
                             NpuGeneration::A);
    EXPECT_GE(res.sloRatio, 1.0);
    EXPECT_GT(res.energyPerUnit, 0.0);
}

}  // namespace
}  // namespace sim
}  // namespace regate
