/**
 * @file
 * Tests for the declarative scenario engine (models/registry.h +
 * models/scenario.h): the paper's workload table as built-in spec
 * rows, the normalization of spec duplicates onto those rows, the
 * Workload-keyed forwards against their spec calls, and
 * spec-only scenarios (MoE) running end to end without any enum
 * value existing for them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "carbon/lifespan.h"
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
using models::builtinScenario;
using models::builtinScenarioOf;
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

    const auto &ra = a.execution();
    const auto &rb = b.execution();
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(a.seconds(), b.seconds());
    for (auto c : arch::kAllComponents)
        EXPECT_TRUE(ra.timeline[c] == rb.timeline[c])
            << "timeline " << static_cast<int>(c);
    EXPECT_EQ(0, std::memcmp(&ra.work, &rb.work, sizeof(ra.work)));
    EXPECT_EQ(0,
              std::memcmp(&ra.saStats, &rb.saStats, sizeof(ra.saStats)));
    EXPECT_EQ(ra.sramUsedIntegral, rb.sramUsedIntegral);
    EXPECT_EQ(ra.sramSetpmPairs, rb.sramSetpmPairs);
    ASSERT_EQ(a.opRecords().size(), b.opRecords().size());
    for (std::size_t i = 0; i < a.opRecords().size(); ++i) {
        const auto &oa = a.opRecords()[i];
        const auto &ob = b.opRecords()[i];
        EXPECT_EQ(oa.count, ob.count);
        EXPECT_EQ(oa.duration, ob.duration);
        EXPECT_EQ(oa.sramDemandBytes, ob.sramDemandBytes);
        EXPECT_EQ(oa.dynamicJ, ob.dynamicJ);
        EXPECT_EQ(oa.sramUsedFrac, ob.sramUsedFrac);
        for (auto c : arch::kAllComponents)
            EXPECT_EQ(oa.activeFrac[c], ob.activeFrac[c]);
    }
    for (auto p : allPolicies()) {
        const auto &pa = a.result(p);
        const auto &pb = b.result(p);
        EXPECT_EQ(pa.overheadCycles, pb.overheadCycles);
        EXPECT_EQ(pa.seconds, pb.seconds);
        EXPECT_EQ(pa.perfOverhead, pb.perfOverhead);
        EXPECT_EQ(0, std::memcmp(&pa.energy, &pb.energy,
                                 sizeof(pa.energy)))
            << "energy breakdown mismatch for " << policyName(p);
        EXPECT_EQ(pa.avgPowerW, pb.avgPowerW);
        EXPECT_EQ(pa.peakPowerW, pb.peakPowerW);
        EXPECT_EQ(pa.vuGateEvents, pb.vuGateEvents);
    }
}

TEST(Scenario, BuiltinRowsRoundTripThroughTheirCanonicalText)
{
    for (auto w : models::allWorkloads()) {
        const auto &row = builtinScenario(w);
        SCOPED_TRACE(row->name);
        EXPECT_EQ(builtinScenario(w), row) << "one spec per row";
        auto text = models::canonicalSpecText({row});
        auto file = models::parseSpecText(text);
        ASSERT_EQ(file.scenarios.size(), 1u);
        EXPECT_EQ(models::canonicalSpecText(file.scenarios), text);
        EXPECT_EQ(builtinScenarioOf(*file.scenarios[0]), row);
        EXPECT_EQ(builtinScenarioOf(*row), row);
    }
}

TEST(Scenario, RenamedDuplicateBecomesTheRow)
{
    auto file = models::parseSpecText("@regate-spec v1\n"
                                      "[scenario my-dlrm]\n"
                                      "family = dlrm\n"
                                      "model = m\n"
                                      "batch = 4096\n"
                                      "chips = 8\n");
    ASSERT_EQ(file.scenarios.size(), 1u);
    const auto &row = builtinScenario(Workload::DlrmM);
    EXPECT_EQ(builtinScenarioOf(*file.scenarios[0]), row);
    auto c = scenarioCase(file.scenarios[0], NpuGeneration::C);
    EXPECT_EQ(c.scenario, row);
    EXPECT_EQ(c.scenario->name, "DLRM-M");
    EXPECT_EQ(c.gen, NpuGeneration::C);
}

TEST(Scenario, SpecThatDiffersFromEveryRowStaysCustom)
{
    const auto &row = *builtinScenario(Workload::Decode70B);
    std::vector<std::pair<std::string, ScenarioSpec>> variants;
    auto variant = [&](const std::string &what) -> ScenarioSpec & {
        variants.emplace_back(what, row);
        variants.back().second.name = "custom";
        return variants.back().second;
    };
    // The same split the heuristic picks, spelled out.
    auto &par = variant("parSet");
    par.parSet = true;
    par.par = models::scenarioSetup(row).par;
    variant("extra").extra.emplace_back("experts", 8);
    variant("gating").gating[0] = 0.2;  // logic_off
    variant("unit").unit = "request";
    variant("batch").batch = row.batch / 2;
    for (const auto &[what, spec] : variants) {
        EXPECT_EQ(builtinScenarioOf(spec), nullptr) << what;
        auto ptr = std::make_shared<const ScenarioSpec>(spec);
        auto c = scenarioCase(ptr, NpuGeneration::D);
        EXPECT_EQ(c.scenario, ptr) << what;
        EXPECT_EQ(c.scenario->name, "custom") << what;
    }
}

TEST(Scenario, WorkloadForwardsEqualTheirSpecCalls)
{
    // The Workload-keyed entry points the benchmark's layer tracer
    // still calls, each against its spec spelling on the same row.
    for (auto w : {Workload::DlrmS, Workload::Decode70B}) {
        const auto &row = builtinScenario(w);
        SCOPED_TRACE(row->name);

        auto rep = simulateWorkload(w, NpuGeneration::D);
        EXPECT_EQ(rep.workload, w);
        EXPECT_EQ(rep.scenario, row);
        expectReportsIdentical(rep, simulateScenario(row, NpuGeneration::D));

        for (auto gen : {NpuGeneration::A, NpuGeneration::D}) {
            EXPECT_EQ(candidateSetups(w, gen), candidateSetups(*row, gen));
            EXPECT_TRUE(models::defaultSetup(w, gen) ==
                        models::defaultScenarioSetup(*row, gen));
        }

        auto expectSameSearch = [](const SloResult &a, const SloResult &b) {
            EXPECT_TRUE(a.setup == b.setup);
            EXPECT_EQ(a.secondsPerUnit, b.secondsPerUnit);
            EXPECT_EQ(a.energyPerUnit, b.energyPerUnit);
            EXPECT_EQ(a.sloRatio, b.sloRatio);
            EXPECT_EQ(a.report.scenario, b.report.scenario);
            expectReportsIdentical(a.report, b.report);
        };
        expectSameSearch(findBestSetup(w, NpuGeneration::C),
                         findBestSetup(row, NpuGeneration::C));
        expectSameSearch(findBestSetupSerial(w, NpuGeneration::C),
                         findBestSetupSerial(row, NpuGeneration::C));

        auto grid = makeGrid({w}, {NpuGeneration::C, NpuGeneration::D});
        ASSERT_EQ(grid.size(), 2u);
        for (const auto &c : grid) {
            EXPECT_EQ(c.scenario, row);
            EXPECT_EQ(c.workload, w);
            EXPECT_FALSE(c.hasSetup);
        }
        EXPECT_EQ(grid[1].gen, NpuGeneration::D);

        EXPECT_EQ(carbon::annualEfficiencyFactor(w),
                  carbon::annualEfficiencyFactor(row));

        auto setup = models::scenarioSetup(*row);
        auto g = models::buildGraph(w, setup);
        auto ref = models::buildScenarioGraph(*row, setup);
        EXPECT_EQ(g.name, ref.name);
        EXPECT_EQ(g.opCount(), ref.opCount());
        EXPECT_EQ(g.blocks.size(), ref.blocks.size());
    }
}

TEST(Scenario, GatingOverridesOverlayTheBaseParams)
{
    // Slots in kGatingKeys' row order.
    ASSERT_EQ(models::kGatingKeys[0].key, "logic_off");
    ASSERT_EQ(models::kGatingKeys[1].key, "sram_sleep");
    ASSERT_EQ(models::kGatingKeys[2].key, "sram_off");
    ASSERT_EQ(models::kGatingKeys[3].key, "delay_scale");
    const std::optional<double> no;
    const decltype(ScenarioSpec::gating) overrides[] = {
        {no, no, no, no},
        {0.2, no, no, no},
        {no, 0.5, no, no},
        {no, no, 0.01, no},
        {no, no, no, 2.0},
        {no, 0.5, no, 2.0},
        {0.2, 0.5, 0.01, 2.0},
    };
    // The paper's params, and a non-default base as fig21 and fig22
    // pass one (so {no, no, 0.01, no} sets only sram_off over delay
    // scale 3 and logic_off 0.1).
    arch::GatingParams paper;
    arch::GatingParams sens;
    sens.setDelayScale(3.0);
    auto ratios = sens.ratios();
    ratios.logicOff = 0.1;
    sens.setRatios(ratios);

    const auto &row = builtinScenario(Workload::DiTXL);
    for (const auto &base : {paper, sens}) {
        for (const auto &gating : overrides) {
            ScenarioSpec spec = *row;
            spec.gating = gating;
            models::validateScenario(spec);
            auto c = scenarioCase(
                std::make_shared<const ScenarioSpec>(spec),
                NpuGeneration::D, base);
            // Overrides keep the case custom, not the DiT-XL row, and
            // ride in the case's params: a set slot replaces the
            // base's value, an empty one keeps it.
            bool custom = gating != decltype(ScenarioSpec::gating){};
            ASSERT_TRUE(c.scenario);
            EXPECT_EQ(c.scenario != row, custom);
            const auto &b = base.ratios();
            const auto &r = c.params.ratios();
            EXPECT_EQ(r.logicOff, gating[0].value_or(b.logicOff));
            EXPECT_EQ(r.sramSleep, gating[1].value_or(b.sramSleep));
            EXPECT_EQ(r.sramOff, gating[2].value_or(b.sramOff));
            EXPECT_EQ(c.params.delayScale(),
                      gating[3].value_or(base.delayScale()));
        }
    }
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

    EXPECT_EQ(builtinScenarioOf(*spec), nullptr);

    auto rep = simulateScenario(spec, NpuGeneration::D);
    ASSERT_TRUE(rep.scenario);
    EXPECT_GT(rep.units, 0.0);
    EXPECT_GT(rep.energyPerUnit(Policy::NoPG), 0.0);
    // ReGate must still save energy on a spec-only scenario.
    EXPECT_LT(rep.energyPerUnit(Policy::Full),
              rep.energyPerUnit(Policy::NoPG));
}

TEST(Scenario, RegistryListsTheBuiltinFamilies)
{
    std::vector<std::string> families;
    for (const auto &row : models::familyTable())
        families.push_back(row.key);
    for (const char *family :
         {"llama-train", "llama-prefill", "llama-decode", "dlrm",
          "diffusion", "moe"}) {
        EXPECT_NE(std::find(families.begin(), families.end(),
                            family),
                  families.end())
            << family << " is not registered";
    }
    EXPECT_TRUE(std::is_sorted(families.begin(), families.end()));
    // Unknown families fail by name, listing what exists.
    try {
        models::familyRow("quantum");
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
