/**
 * @file
 * Tests for the declarative scenario engine (models/registry.h +
 * models/scenario.h): the enum path and the spec path must be ONE
 * code path — every paper workload simulated through its built-in
 * spec is bitwise-identical to the enum-driven run — and
 * registry-only scenarios (MoE) run end to end without any enum
 * value existing for them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>

#include "common/error.h"
#include "models/registry.h"
#include "models/spec.h"
#include "models/workload.h"
#include "sim/report.h"
#include "sim/sweep.h"

namespace regate {
namespace sim {
namespace {

using arch::NpuGeneration;
using models::ScenarioSpec;
using models::Workload;

/** Bitwise comparison of every field a report carries. */
void
expectReportsIdentical(const WorkloadReport &a, const WorkloadReport &b)
{
    EXPECT_EQ(a.gen, b.gen);
    EXPECT_TRUE(a.setup == b.setup);
    EXPECT_EQ(a.units, b.units);
    EXPECT_TRUE(a.gatingParams() == b.gatingParams());

    const auto &ra = a.run();
    const auto &rb = b.run();
    EXPECT_EQ(ra.name, rb.name);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.seconds, rb.seconds);
    for (auto c : arch::kAllComponents)
        EXPECT_TRUE(ra.timeline[c] == rb.timeline[c])
            << "timeline " << static_cast<int>(c);
    EXPECT_EQ(0, std::memcmp(&ra.work, &rb.work, sizeof(ra.work)));
    EXPECT_EQ(0,
              std::memcmp(&ra.saStats, &rb.saStats, sizeof(ra.saStats)));
    EXPECT_EQ(ra.sramUsedIntegral, rb.sramUsedIntegral);
    ASSERT_EQ(ra.opRecords.size(), rb.opRecords.size());
    for (std::size_t i = 0; i < ra.opRecords.size(); ++i) {
        auto oa = ra.opRecords[i];
        auto ob = rb.opRecords[i];
        EXPECT_EQ(oa.name(), ob.name());
        EXPECT_EQ(oa.kind(), ob.kind());
        EXPECT_EQ(oa.count(), ob.count());
        EXPECT_EQ(oa.duration(), ob.duration());
        EXPECT_EQ(oa.sramDemandBytes(), ob.sramDemandBytes());
        EXPECT_EQ(oa.dynamicJ(), ob.dynamicJ());
        EXPECT_EQ(oa.sramUsedFrac(), ob.sramUsedFrac());
        for (auto c : arch::kAllComponents)
            EXPECT_EQ(oa.activeFrac(c), ob.activeFrac(c));
    }
    for (auto p : allPolicies()) {
        const auto &pa = ra.result(p);
        const auto &pb = rb.result(p);
        EXPECT_EQ(pa.overheadCycles, pb.overheadCycles);
        EXPECT_EQ(pa.seconds, pb.seconds);
        EXPECT_EQ(pa.perfOverhead, pb.perfOverhead);
        EXPECT_EQ(0, std::memcmp(&pa.energy, &pb.energy,
                                 sizeof(pa.energy)))
            << "energy breakdown mismatch for " << policyName(p);
        EXPECT_EQ(pa.avgPowerW, pb.avgPowerW);
        EXPECT_EQ(pa.peakPowerW, pb.peakPowerW);
        EXPECT_EQ(pa.vuGateEvents, pb.vuGateEvents);
        EXPECT_EQ(pa.sramSetpmPairs, pb.sramSetpmPairs);
    }
}

TEST(Scenario, EnumPathBitwiseEqualsSpecPathForAllWorkloads)
{
    // The ISSUE acceptance bar: for every one of the 17 paper
    // workloads, forcing the scenario path (spec kept, no builtin
    // normalization) produces a report bitwise-identical to the enum
    // path — same setup, same energy, same op records, same value of
    // every number.
    for (auto w : models::allWorkloads()) {
        auto spec = std::make_shared<const ScenarioSpec>(
            models::builtinSpec(w));
        auto rep = simulateScenario(spec, NpuGeneration::D);
        ASSERT_TRUE(rep.scenario) << models::workloadName(w);

        auto ref = simulateWorkload(w, NpuGeneration::D);
        ASSERT_FALSE(ref.scenario);

        SCOPED_TRACE(models::workloadName(w));
        expectReportsIdentical(rep, ref);
    }
}

TEST(Scenario, BuiltinSpecsRoundTripToTheirWorkload)
{
    for (auto w : models::allWorkloads()) {
        Workload back{};
        EXPECT_TRUE(
            models::builtinWorkloadOf(models::builtinSpec(w), &back))
            << models::workloadName(w);
        EXPECT_EQ(back, w);
    }
}

TEST(Scenario, ScenarioCaseNormalizesBuiltinDuplicates)
{
    // A spec identical to a paper workload becomes a plain enum case
    // (so its output stays byte-identical to enum grids)...
    auto builtin = std::make_shared<const ScenarioSpec>(
        models::builtinSpec(Workload::DlrmM));
    auto c = scenarioCase(builtin, NpuGeneration::C);
    EXPECT_FALSE(c.scenario);
    EXPECT_EQ(c.workload, Workload::DlrmM);

    // ...while a genuinely custom scenario keeps its spec identity.
    auto custom = *builtin;
    custom.batch = 64;
    models::validateScenario(custom);
    auto cc = scenarioCase(
        std::make_shared<const ScenarioSpec>(custom),
        NpuGeneration::C);
    ASSERT_TRUE(cc.scenario);
    EXPECT_EQ(cc.scenario->batch, 64);
}

TEST(Scenario, GatingOverridesOverlayTheBaseParams)
{
    ScenarioSpec spec = models::builtinSpec(Workload::DiTXL);
    spec.gating.emplace_back("delay_scale", 2.0);
    spec.gating.emplace_back("sram_sleep", 0.5);
    std::sort(spec.gating.begin(), spec.gating.end());
    models::validateScenario(spec);

    auto c = scenarioCase(
        std::make_shared<const ScenarioSpec>(spec),
        NpuGeneration::D);
    // Overrides force the case off the builtin fast path and ride in
    // the case's params; keys the spec does not set keep the base.
    ASSERT_TRUE(c.scenario);
    arch::GatingParams base;
    EXPECT_DOUBLE_EQ(c.params.ratios().sramSleep, 0.5);
    EXPECT_DOUBLE_EQ(c.params.ratios().logicOff,
                     base.ratios().logicOff);
    EXPECT_DOUBLE_EQ(c.params.delayScale(), 2.0);
}

TEST(Scenario, MoeScenarioRunsWithoutAnEnumValue)
{
    auto file = models::parseSpecText(
        "@regate-spec v1\n"
        "[scenario mixtral]\n"
        "family = moe\n"
        "model = 8b\n"
        "experts = 8\n"
        "batch = 16\n"
        "chips = 8\n");
    ASSERT_EQ(file.scenarios.size(), 1u);
    auto spec = file.scenarios[0];
    EXPECT_EQ(spec->extraOr("top_k", 0), 2);  // Default filled.

    Workload back{};
    EXPECT_FALSE(models::builtinWorkloadOf(*spec, &back));

    auto rep = simulateScenario(spec, NpuGeneration::D);
    ASSERT_TRUE(rep.scenario);
    EXPECT_GT(rep.units, 0.0);
    EXPECT_GT(rep.energyPerUnit(Policy::NoPG), 0.0);
    // ReGate must still save energy on a registry-only scenario.
    EXPECT_LT(rep.energyPerUnit(Policy::Full),
              rep.energyPerUnit(Policy::NoPG));
}

TEST(Scenario, RegistryListsTheBuiltinFamilies)
{
    auto families = models::GeneratorRegistry::instance().families();
    for (const char *family :
         {"llama-train", "llama-prefill", "llama-decode", "dlrm",
          "diffusion", "moe"}) {
        EXPECT_NE(std::find(families.begin(), families.end(),
                            family),
                  families.end())
            << family << " is not registered";
    }
    // Unknown families fail by name, listing what exists.
    try {
        models::GeneratorRegistry::instance().require("quantum");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("quantum"), std::string::npos);
        EXPECT_NE(what.find("llama-train"), std::string::npos);
    }
}

}  // namespace
}  // namespace sim
}  // namespace regate
