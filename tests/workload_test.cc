/**
 * @file
 * Tests for the paper's workload table and its Table 4 configurations.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/error.h"
#include "models/registry.h"
#include "models/workload.h"

namespace regate {
namespace models {
namespace {

using arch::NpuGeneration;

const ScenarioSpec &
row(std::string_view name)
{
    return *builtinScenario(name);
}

TEST(Workload, RegistryCoversPaperSuite)
{
    EXPECT_EQ(paperSuite().size(), 17u);
    std::map<std::string, int> families;
    for (const auto &spec : paperSuite())
        ++families[spec->family];
    EXPECT_EQ(families, (std::map<std::string, int>{{"llama-train", 4},
                                                    {"llama-prefill", 4},
                                                    {"llama-decode", 4},
                                                    {"dlrm", 3},
                                                    {"diffusion", 2}}));
}

TEST(Workload, Table4Verbatim)
{
    auto t = scenarioSetup(row("Llama3.1-405B-Train"));
    EXPECT_EQ(t.chips, 16);
    EXPECT_EQ(t.batch, 32);

    auto d = scenarioSetup(row("Llama3-70B-Decode"));
    EXPECT_EQ(d.chips, 128);
    EXPECT_EQ(d.batch, 4096);

    auto r = scenarioSetup(row("DLRM-L"));
    EXPECT_EQ(r.chips, 8);
    EXPECT_EQ(r.batch, 4096);

    auto s = scenarioSetup(row("GLIGEN"));
    EXPECT_EQ(s.chips, 64);
    EXPECT_EQ(s.batch, 256);
}

TEST(Workload, ParallelismConsistent)
{
    for (const auto &spec : paperSuite()) {
        auto s = scenarioSetup(*spec);
        EXPECT_EQ(s.par.chips(), s.chips) << spec->name;
        EXPECT_LE(s.par.dp, s.batch) << spec->name;
    }
}

TEST(Workload, UnitsPerRun)
{
    auto units = [](std::string_view name) {
        return scenarioUnitsPerRun(row(name), scenarioSetup(row(name)));
    };
    EXPECT_DOUBLE_EQ(units("Llama3-8B-Train"), 1.0);
    EXPECT_DOUBLE_EQ(units("Llama3-8B-Prefill"), 4.0 * kPrefillSeqLen);
    EXPECT_DOUBLE_EQ(units("Llama3-8B-Decode"), 8.0 * kDecodeOutLen);
    EXPECT_DOUBLE_EQ(units("DLRM-S"), 4096.0);
}

TEST(Workload, DefaultSetupScalesForSmallHbm)
{
    // 405B weights (810 GB bf16) cannot fit 16 GB NPU-A chips at the
    // Table 4 chip count: the setup must grow the pod.
    const auto &spec = row("Llama3.1-405B-Prefill");
    auto d = defaultScenarioSetup(spec, NpuGeneration::D);
    auto a = defaultScenarioSetup(spec, NpuGeneration::A);
    EXPECT_GT(a.chips, d.chips / 256 * 2);
    EXPECT_GE(static_cast<double>(a.chips) *
                  arch::npuConfig(NpuGeneration::A).hbmBytes * 0.85,
              scenarioModelStateBytes(spec));
}

TEST(Workload, BiggerHbmNeverNeedsMoreChips)
{
    for (const auto &spec : paperSuite()) {
        auto a = defaultScenarioSetup(*spec, NpuGeneration::A);
        auto e = defaultScenarioSetup(*spec, NpuGeneration::E);
        EXPECT_GE(a.chips, e.chips) << spec->name;
    }
}

TEST(Workload, BuildGraphAllWorkloads)
{
    for (const auto &spec : paperSuite()) {
        auto g = buildScenarioGraph(*spec, scenarioSetup(*spec));
        EXPECT_NO_THROW(g.validate()) << spec->name;
        EXPECT_GT(g.opCount(), 0u) << spec->name;
    }
}

TEST(Workload, NamesAndUnits)
{
    EXPECT_EQ(row("Llama3-70B-Prefill").name, "Llama3-70B-Prefill");
    EXPECT_EQ(row("DLRM-M").name, "DLRM-M");
    EXPECT_EQ(workUnitName(scenarioWorkUnit(row("DiT-XL"))),
              "Image");
    EXPECT_EQ(workUnitName(scenarioWorkUnit(row("Llama3-70B-Train"))),
              "Iter");
    EXPECT_EQ(scenarioFamilyLabel(row("Llama3-8B-Decode")), "LLM Decode");
}

TEST(Workload, LookupByNameReturnsTheSuiteRow)
{
    for (const auto &spec : paperSuite())
        EXPECT_EQ(builtinScenario(spec->name), spec) << spec->name;
}

TEST(Workload, UnknownNameIsANamedConfigError)
{
    try {
        builtinScenario("Llama3-8B");
        FAIL() << "no ConfigError";
    } catch (const ConfigError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unknown paper workload 'Llama3-8B'"),
                  std::string::npos)
            << msg;
        for (const auto &spec : paperSuite())
            EXPECT_NE(msg.find(spec->name), std::string::npos)
                << spec->name << " missing from: " << msg;
    }
}

TEST(Workload, ForwardsReadTheRow)
{
    // The Workload-keyed names the benchmark's layer tracer still
    // calls, against the spec spelling of the same row.
    for (auto w : allWorkloads()) {
        const auto &spec = *paperSuite()[static_cast<std::size_t>(w)];
        EXPECT_EQ(workloadName(w), spec.name);
        EXPECT_EQ(workUnitOf(w), scenarioWorkUnit(spec)) << spec.name;
        EXPECT_EQ(workloadFamilyName(familyOf(w)),
                  scenarioFamilyLabel(spec))
            << spec.name;
    }
    EXPECT_EQ(familyOf(Workload::Train8B), WorkloadFamily::LlmTraining);
    EXPECT_EQ(familyOf(Workload::Gligen), WorkloadFamily::StableDiffusion);
}

TEST(Workload, EnumeratorsNameTheirRows)
{
    // The layer tracer's enum indexes the suite by position: each
    // enumerator must stay on the row of its canonical name.
    const std::pair<Workload, const char *> expected[] = {
        {Workload::Train8B, "Llama3-8B-Train"},
        {Workload::Train13B, "Llama2-13B-Train"},
        {Workload::Train70B, "Llama3-70B-Train"},
        {Workload::Train405B, "Llama3.1-405B-Train"},
        {Workload::Prefill8B, "Llama3-8B-Prefill"},
        {Workload::Prefill13B, "Llama2-13B-Prefill"},
        {Workload::Prefill70B, "Llama3-70B-Prefill"},
        {Workload::Prefill405B, "Llama3.1-405B-Prefill"},
        {Workload::Decode8B, "Llama3-8B-Decode"},
        {Workload::Decode13B, "Llama2-13B-Decode"},
        {Workload::Decode70B, "Llama3-70B-Decode"},
        {Workload::Decode405B, "Llama3.1-405B-Decode"},
        {Workload::DlrmS, "DLRM-S"},
        {Workload::DlrmM, "DLRM-M"},
        {Workload::DlrmL, "DLRM-L"},
        {Workload::DiTXL, "DiT-XL"},
        {Workload::Gligen, "GLIGEN"},
    };
    ASSERT_EQ(allWorkloads().size(), std::size(expected));
    for (std::size_t i = 0; i < std::size(expected); ++i) {
        auto [w, name] = expected[i];
        EXPECT_EQ(allWorkloads()[i], w) << name;
        EXPECT_EQ(workloadName(w), name);
    }
}

TEST(Workload, ModelStateBytesSensible)
{
    // Decode state includes the KV cache: bigger than prefill state.
    EXPECT_GT(scenarioModelStateBytes(row("Llama3-70B-Decode")),
              scenarioModelStateBytes(row("Llama3-70B-Prefill")));
    // DLRM state is the embedding tables.
    EXPECT_NEAR(scenarioModelStateBytes(row("DLRM-L")), 98e9, 1e9);
}

}  // namespace
}  // namespace models
}  // namespace regate
