/**
 * @file
 * Tests for the paper's workload table and its Table 4 configurations.
 */

#include <gtest/gtest.h>

#include <map>

#include "models/registry.h"
#include "models/workload.h"

namespace regate {
namespace models {
namespace {

using arch::NpuGeneration;

const ScenarioSpec &
row(Workload w)
{
    return *builtinScenario(w);
}

TEST(Workload, RegistryCoversPaperSuite)
{
    EXPECT_EQ(allWorkloads().size(), 17u);
    std::map<std::string, int> families;
    for (auto w : allWorkloads())
        ++families[row(w).family];
    EXPECT_EQ(families, (std::map<std::string, int>{{"llama-train", 4},
                                                    {"llama-prefill", 4},
                                                    {"llama-decode", 4},
                                                    {"dlrm", 3},
                                                    {"diffusion", 2}}));
}

TEST(Workload, Table4Verbatim)
{
    auto t = scenarioSetup(row(Workload::Train405B));
    EXPECT_EQ(t.chips, 16);
    EXPECT_EQ(t.batch, 32);

    auto d = scenarioSetup(row(Workload::Decode70B));
    EXPECT_EQ(d.chips, 128);
    EXPECT_EQ(d.batch, 4096);

    auto r = scenarioSetup(row(Workload::DlrmL));
    EXPECT_EQ(r.chips, 8);
    EXPECT_EQ(r.batch, 4096);

    auto s = scenarioSetup(row(Workload::Gligen));
    EXPECT_EQ(s.chips, 64);
    EXPECT_EQ(s.batch, 256);
}

TEST(Workload, ParallelismConsistent)
{
    for (auto w : allWorkloads()) {
        auto s = scenarioSetup(row(w));
        EXPECT_EQ(s.par.chips(), s.chips) << row(w).name;
        EXPECT_LE(s.par.dp, s.batch) << row(w).name;
    }
}

TEST(Workload, UnitsPerRun)
{
    auto units = [](Workload w) {
        return scenarioUnitsPerRun(row(w), scenarioSetup(row(w)));
    };
    EXPECT_DOUBLE_EQ(units(Workload::Train8B), 1.0);
    EXPECT_DOUBLE_EQ(units(Workload::Prefill8B), 4.0 * kPrefillSeqLen);
    EXPECT_DOUBLE_EQ(units(Workload::Decode8B), 8.0 * kDecodeOutLen);
    EXPECT_DOUBLE_EQ(units(Workload::DlrmS), 4096.0);
}

TEST(Workload, DefaultSetupScalesForSmallHbm)
{
    // 405B weights (810 GB bf16) cannot fit 16 GB NPU-A chips at the
    // Table 4 chip count: the setup must grow the pod.
    const auto &spec = row(Workload::Prefill405B);
    auto d = defaultScenarioSetup(spec, NpuGeneration::D);
    auto a = defaultScenarioSetup(spec, NpuGeneration::A);
    EXPECT_GT(a.chips, d.chips / 256 * 2);
    EXPECT_GE(static_cast<double>(a.chips) *
                  arch::npuConfig(NpuGeneration::A).hbmBytes * 0.85,
              scenarioModelStateBytes(spec));
}

TEST(Workload, BiggerHbmNeverNeedsMoreChips)
{
    for (auto w : allWorkloads()) {
        auto a = defaultScenarioSetup(row(w), NpuGeneration::A);
        auto e = defaultScenarioSetup(row(w), NpuGeneration::E);
        EXPECT_GE(a.chips, e.chips) << row(w).name;
    }
}

TEST(Workload, BuildGraphAllWorkloads)
{
    for (auto w : allWorkloads()) {
        auto g = buildScenarioGraph(row(w), scenarioSetup(row(w)));
        EXPECT_NO_THROW(g.validate()) << row(w).name;
        EXPECT_GT(g.opCount(), 0u) << row(w).name;
    }
}

TEST(Workload, NamesAndUnits)
{
    EXPECT_EQ(row(Workload::Prefill70B).name, "Llama3-70B-Prefill");
    EXPECT_EQ(row(Workload::DlrmM).name, "DLRM-M");
    EXPECT_EQ(workUnitName(scenarioWorkUnit(row(Workload::DiTXL))),
              "Image");
    EXPECT_EQ(workUnitName(scenarioWorkUnit(row(Workload::Train70B))),
              "Iter");
    EXPECT_EQ(scenarioFamilyLabel(row(Workload::Decode8B)), "LLM Decode");
}

TEST(Workload, ForwardsReadTheRow)
{
    // The Workload-keyed names the benchmark's layer tracer still
    // calls, against the spec spelling of the same row.
    for (auto w : allWorkloads()) {
        const auto &spec = row(w);
        EXPECT_EQ(workloadName(w), spec.name);
        EXPECT_EQ(workUnitOf(w), scenarioWorkUnit(spec)) << spec.name;
        EXPECT_EQ(workloadFamilyName(familyOf(w)),
                  scenarioFamilyLabel(spec))
            << spec.name;
    }
    EXPECT_EQ(familyOf(Workload::Train8B), WorkloadFamily::LlmTraining);
    EXPECT_EQ(familyOf(Workload::Gligen), WorkloadFamily::StableDiffusion);
}

TEST(Workload, ModelStateBytesSensible)
{
    // Decode state includes the KV cache: bigger than prefill state.
    EXPECT_GT(scenarioModelStateBytes(row(Workload::Decode70B)),
              scenarioModelStateBytes(row(Workload::Prefill70B)));
    // DLRM state is the embedding tables.
    EXPECT_NEAR(scenarioModelStateBytes(row(Workload::DlrmL)), 98e9, 1e9);
}

}  // namespace
}  // namespace models
}  // namespace regate
