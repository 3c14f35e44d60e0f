/**
 * @file
 * Property tests over the policy stack, parameterized across the
 * paper's workloads: energy ordering (Ideal >= Full >= HW >= Base >=
 * 0 vs NoPG), overhead bounds, and breakdown consistency.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <map>

#include "compiler/compiler.h"
#include "models/registry.h"
#include "models/workload.h"
#include "sim/report.h"

namespace regate {
namespace sim {
namespace {

using arch::Component;
using arch::NpuGeneration;
using models::builtinScenario;
using models::Workload;

class WorkloadSweep : public ::testing::TestWithParam<Workload>
{
  protected:
    static const WorkloadReport &
    report(Workload w)
    {
        static std::map<Workload, WorkloadReport> cache;
        auto it = cache.find(w);
        if (it == cache.end()) {
            it = cache.emplace(w, simulateScenario(builtinScenario(w),
                                                   NpuGeneration::D))
                     .first;
        }
        return it->second;
    }
};

TEST_P(WorkloadSweep, SavingsOrdering)
{
    const auto &r = report(GetParam());
    EXPECT_GE(r.savingVsNoPg(Policy::Base), 0.0);
    EXPECT_GE(r.savingVsNoPg(Policy::HW),
              r.savingVsNoPg(Policy::Base) - 1e-9);
    EXPECT_GE(r.savingVsNoPg(Policy::Full),
              r.savingVsNoPg(Policy::HW) - 1e-9);
    EXPECT_GE(r.savingVsNoPg(Policy::Ideal),
              r.savingVsNoPg(Policy::Full) - 1e-9);
    EXPECT_LT(r.savingVsNoPg(Policy::Ideal), 0.6);
}

TEST_P(WorkloadSweep, FullSavingsInPaperBallpark)
{
    // Paper: 8.5%-32.8% across the suite; we allow a wider envelope
    // since the substrate differs, but every workload must save
    // meaningfully and none implausibly much.
    const auto &r = report(GetParam());
    EXPECT_GT(r.savingVsNoPg(Policy::Full), 0.05);
    EXPECT_LT(r.savingVsNoPg(Policy::Full), 0.45);
}

TEST_P(WorkloadSweep, FullNearIdeal)
{
    // §6.2: ReGate-Full is within a fraction of a percent of Ideal.
    const auto &r = report(GetParam());
    EXPECT_LT(r.savingVsNoPg(Policy::Ideal) -
                  r.savingVsNoPg(Policy::Full),
              0.03);
}

TEST_P(WorkloadSweep, OverheadBounds)
{
    // Fig. 19: Base <= ~5%, HW < ~1%, Full <= 0.5%.
    const auto &r = report(GetParam());
    EXPECT_LE(r.result(Policy::Base).perfOverhead, 0.05);
    EXPECT_LE(r.result(Policy::HW).perfOverhead, 0.01);
    EXPECT_LE(r.result(Policy::Full).perfOverhead, 0.005);
}

TEST_P(WorkloadSweep, StaticShareInPaperBand)
{
    // §3: when the chip is busy, static power is 30%-72% of energy.
    const auto &r = report(GetParam());
    double share = r.result(Policy::NoPG).energy.staticShareBusy();
    EXPECT_GE(share, 0.30);
    EXPECT_LE(share, 0.78);
}

TEST_P(WorkloadSweep, EnergyBreakdownConsistent)
{
    const auto &r = report(GetParam());
    for (auto p : allPolicies()) {
        const auto &e = r.result(p).energy;
        for (auto c : arch::kAllComponents) {
            EXPECT_GE(e.staticJ[c], 0.0) << arch::componentName(c);
            EXPECT_GE(e.dynamicJ[c], 0.0) << arch::componentName(c);
        }
        EXPECT_GT(e.busyTotal(), 0.0);
    }
}

TEST_P(WorkloadSweep, UtilizationsAreFractions)
{
    const auto &r = report(GetParam());
    for (auto c : arch::kAllComponents) {
        double u = r.temporalUtil(c);
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0);
    }
    EXPECT_GE(r.saSpatialUtil(), 0.0);
    EXPECT_LE(r.saSpatialUtil(), 1.0);
}

TEST_P(WorkloadSweep, NoPgAndIdealReadNoGatingParams)
{
    // NoPG gates nothing and Ideal gates every idle cycle for free,
    // so neither result may move with any gating parameter.
    const auto &spec = *builtinScenario(GetParam());
    auto setup = models::defaultScenarioSetup(spec, NpuGeneration::D);
    const auto &cfg = arch::npuConfig(NpuGeneration::D);
    auto graph =
        compiler::compileGraph(models::buildScenarioGraph(spec, setup), cfg)
            .graph;
    auto params = [](double logic, double sleep, double off,
                     double scale) {
        arch::GatingParams p(arch::LeakageRatios{logic, sleep, off});
        p.setDelayScale(scale);
        return p;
    };
    const WorkloadReport &ref = report(GetParam());
    for (const auto &p :
         {params(0, 0, 0, 0.25), params(1, 1, 1, 4),
          params(0.4, 0.8, 0.1, 1e6), params(0.03, 0.25, 0.002, 1)}) {
        auto got = Engine(cfg, p).run(graph, setup.chips);
        for (auto policy : {Policy::NoPG, Policy::Ideal}) {
            SCOPED_TRACE(policyName(policy));
            const auto &a = ref.result(policy);
            const auto &b = got.result(policy);
            EXPECT_EQ(a.policy, b.policy);
            EXPECT_EQ(a.overheadCycles, b.overheadCycles);
            EXPECT_EQ(a.seconds, b.seconds);
            EXPECT_EQ(a.perfOverhead, b.perfOverhead);
            EXPECT_EQ(0, std::memcmp(&a.energy, &b.energy,
                                     sizeof(a.energy)));
            EXPECT_EQ(a.avgPowerW, b.avgPowerW);
            EXPECT_EQ(a.peakPowerW, b.peakPowerW);
            EXPECT_EQ(a.vuGateEvents, b.vuGateEvents);
        }
        EXPECT_EQ(ref.execution().sramSetpmPairs, got.sramSetpmPairs);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadSweep,
    ::testing::ValuesIn(models::allWorkloads()),
    [](const ::testing::TestParamInfo<Workload> &info) {
        std::string name = models::workloadName(info.param);
        for (auto &ch : name) {
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        }
        return name;
    });

// ---- Cross-workload shape checks (Fig. 4/8/17) ----

TEST(PolicyShape, DlrmSavesMost)
{
    auto dlrm = simulateScenario(builtinScenario(Workload::DlrmL),
                                 NpuGeneration::D);
    auto prefill =
        simulateScenario(builtinScenario(Workload::Prefill8B),
                         NpuGeneration::D);
    EXPECT_GT(dlrm.savingVsNoPg(Policy::Full),
              prefill.savingVsNoPg(Policy::Full));
}

TEST(PolicyShape, PrefillSaUtilHigherThanDlrm)
{
    auto dlrm = simulateScenario(builtinScenario(Workload::DlrmL),
                                 NpuGeneration::D);
    auto prefill =
        simulateScenario(builtinScenario(Workload::Prefill8B),
                         NpuGeneration::D);
    EXPECT_GT(prefill.temporalUtil(Component::Sa), 0.7);
    EXPECT_LT(dlrm.temporalUtil(Component::Sa), 0.3);
}

TEST(PolicyShape, DlrmIsIciHeavy)
{
    auto dlrm = simulateScenario(builtinScenario(Workload::DlrmL),
                                 NpuGeneration::D);
    EXPECT_GT(dlrm.temporalUtil(Component::Ici),
              dlrm.temporalUtil(Component::Sa));
}

TEST(PolicyShape, DecodeMapsSmallGemmsToVu)
{
    auto decode = simulateScenario(builtinScenario(Workload::Decode8B),
                                   NpuGeneration::D);
    // Single-chip, batch-8 decode: SA unused (Fig. 4 pattern).
    EXPECT_LT(decode.temporalUtil(Component::Sa), 0.05);
    EXPECT_GT(decode.temporalUtil(Component::Hbm), 0.9);
}

TEST(PolicyShape, SpatialUtilPrefillVsDiffusion)
{
    auto prefill = simulateScenario(builtinScenario(Workload::Prefill70B),
                                    NpuGeneration::D);
    auto gligen = simulateScenario(builtinScenario(Workload::Gligen),
                                   NpuGeneration::D);
    // Fig. 5: prefill ~0.9+, GLIGEN ~0.5 (head sizes < SA width).
    EXPECT_GT(prefill.saSpatialUtil(), 0.85);
    EXPECT_LT(gligen.saSpatialUtil(), 0.7);
}

}  // namespace
}  // namespace sim
}  // namespace regate
