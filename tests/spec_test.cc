/**
 * @file
 * Tests for the text workload-spec parser (models/spec.h): the
 * strict error matrix (every violation a named ConfigError carrying
 * the offending source:line), grid expansion, and the canonical
 * round-trip.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "models/spec.h"

namespace regate {
namespace models {
namespace {

/** Parse @p text expecting a ConfigError mentioning @p needle and
 *  the offending @p line number. */
void
expectError(const std::string &text, const std::string &needle,
            int line)
{
    try {
        parseSpecText(text, "spec.txt");
        FAIL() << "expected a ConfigError containing '" << needle
               << "'";
    } catch (const ConfigError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find(needle), std::string::npos)
            << "error '" << what << "' lacks '" << needle << "'";
        std::string at = "spec.txt:" + std::to_string(line) + ":";
        EXPECT_NE(what.find(at), std::string::npos)
            << "error '" << what << "' does not name " << at;
    }
}

const char *kValid = R"(@regate-spec v1
[scenario small]
family = llama-prefill
model = 8b
batch = 4
chips = 1
)";

TEST(SpecParser, MinimalScenarioParses)
{
    auto file = parseSpecText(kValid);
    ASSERT_EQ(file.scenarios.size(), 1u);
    const auto &s = *file.scenarios[0];
    EXPECT_EQ(s.name, "small");
    EXPECT_EQ(s.family, "llama-prefill");
    EXPECT_EQ(s.model, "8b");
    EXPECT_EQ(s.batch, 4);
    EXPECT_EQ(s.chips, 1);
    // Defaults are filled by validation.
    EXPECT_GT(s.seqLen, 0);
    EXPECT_EQ(s.unit, "token");
}

TEST(SpecParser, MissingHeader)
{
    expectError("[scenario a]\nfamily = dlrm\n",
                "expected '@regate-spec v1' header", 1);
}

TEST(SpecParser, UnknownFamily)
{
    expectError("@regate-spec v1\n[scenario a]\nfamily = quantum\n"
                "batch = 1\nchips = 1\n",
                "unknown workload family 'quantum'", 3);
}

TEST(SpecParser, UnknownKey)
{
    expectError("@regate-spec v1\n[scenario a]\nfamily = dlrm\n"
                "model = s\nbatch = 1\nchips = 1\nwarp = 9\n",
                "unknown key 'warp'", 7);
}

TEST(SpecParser, MoeOnlyKeyRejectedForLlama)
{
    // `experts` is documented by moe, not llama-train.
    expectError("@regate-spec v1\n[scenario a]\n"
                "family = llama-train\nmodel = 8b\nbatch = 1\n"
                "chips = 1\nexperts = 8\n",
                "unknown key 'experts'", 7);
}

TEST(SpecParser, MalformedValue)
{
    expectError("@regate-spec v1\n[scenario a]\nfamily = dlrm\n"
                "model = s\nbatch = soon\nchips = 1\n",
                "malformed value for 'batch'", 5);
}

TEST(SpecParser, BadDistributionNoStep)
{
    expectError("@regate-spec v1\n[scenario a]\nfamily = dlrm\n"
                "model = s\nbatch = 1..8\nchips = 1\n",
                "bad distribution for 'batch'", 5);
}

TEST(SpecParser, BadDistributionInvertedBounds)
{
    expectError("@regate-spec v1\n[scenario a]\nfamily = dlrm\n"
                "model = s\nbatch = 8..1:*2\nchips = 1\n",
                "upper bound 1 below lower bound 8", 5);
}

TEST(SpecParser, BadDistributionGeometricStep)
{
    expectError("@regate-spec v1\n[scenario a]\nfamily = dlrm\n"
                "model = s\nbatch = 1..8:*1\nchips = 1\n",
                "geometric step must be > 1", 5);
}

TEST(SpecParser, InconsistentParallelism)
{
    expectError("@regate-spec v1\n[scenario a]\n"
                "family = llama-decode\nmodel = 8b\nbatch = 8\n"
                "chips = 8\ndp = 2\ntp = 2\npp = 1\n",
                "chips (8) != tp*dp*pp", 6);
}

TEST(SpecParser, BatchBelowDataParallelism)
{
    // An explicit split whose dp exceeds the batch.
    expectError("@regate-spec v1\n[scenario a]\n"
                "family = llama-decode\nmodel = 8b\nbatch = 2\n"
                "chips = 4\ndp = 4\ntp = 1\npp = 1\n",
                "batch 2 too small for dp=4 (chips=4)", 2);
    // A heuristic split that is fine as written (tp=4, dp=1), but 64
    // resident experts grow the pod to 16 chips on NPU-D: tp=8, dp=2.
    expectError("@regate-spec v1\n[scenario a]\nfamily = moe\n"
                "model = 8b\nexperts = 64\nbatch = 1\nchips = 4\n",
                "batch 1 too small for dp=2 (chips=16)", 2);
}

TEST(SpecParser, EmptySection)
{
    expectError("@regate-spec v1\n[scenario a]\n[scenario b]\n"
                "family = dlrm\nmodel = s\nbatch = 1\nchips = 1\n",
                "scenario 'a' is empty", 2);
}

TEST(SpecParser, DuplicateSection)
{
    expectError("@regate-spec v1\n[scenario a]\nfamily = dlrm\n"
                "model = s\nbatch = 1\nchips = 1\n[scenario a]\n",
                "duplicate scenario section 'a'", 7);
}

TEST(SpecParser, DuplicateKey)
{
    expectError("@regate-spec v1\n[scenario a]\nfamily = dlrm\n"
                "model = s\nbatch = 1\nbatch = 2\nchips = 1\n",
                "duplicate key 'batch'", 6);
}

TEST(SpecParser, KeyOutsideSection)
{
    expectError("@regate-spec v1\nfamily = dlrm\n",
                "outside any [scenario NAME] section", 2);
}

TEST(SpecParser, NoSections)
{
    expectError("@regate-spec v1\n# just a comment\n",
                "no [scenario NAME] sections", 2);
}

TEST(SpecParser, UnknownModelNamesScenario)
{
    expectError("@regate-spec v1\n[scenario a]\nfamily = dlrm\n"
                "model = xxl\nbatch = 1\nchips = 1\n",
                "unknown dlrm model 'xxl'", 2);
}

TEST(SpecParser, ListAndRangeExpansion)
{
    auto file = parseSpecText(
        "@regate-spec v1\n[scenario sweep]\nfamily = dlrm\n"
        "model = s\nbatch = 16,32\nchips = 1..4:*2\n");
    // 2 batches x 3 chip points, batch varying slowest.
    ASSERT_EQ(file.scenarios.size(), 6u);
    EXPECT_EQ(file.scenarios[0]->name, "sweep@batch=16@chips=1");
    EXPECT_EQ(file.scenarios[0]->batch, 16);
    EXPECT_EQ(file.scenarios[0]->chips, 1);
    EXPECT_EQ(file.scenarios[5]->name, "sweep@batch=32@chips=4");
    EXPECT_EQ(file.scenarios[5]->batch, 32);
    EXPECT_EQ(file.scenarios[5]->chips, 4);
}

TEST(SpecParser, ArithmeticRange)
{
    auto file = parseSpecText(
        "@regate-spec v1\n[scenario sweep]\nfamily = dlrm\n"
        "model = s\nbatch = 8\nchips = 2..6:+2\n");
    ASSERT_EQ(file.scenarios.size(), 3u);
    EXPECT_EQ(file.scenarios[0]->chips, 2);
    EXPECT_EQ(file.scenarios[1]->chips, 4);
    EXPECT_EQ(file.scenarios[2]->chips, 6);
}

TEST(SpecParser, CanonicalRoundTrip)
{
    // A deliberately messy spec: comments, blank lines, gating
    // overrides, explicit parallelism, MoE extras, and a sweep.
    auto first = parseSpecText(
        "@regate-spec v1\n"
        "# comment\n\n"
        "[scenario mix]\n"
        "family = moe\n"
        "model   =   8b   # inline comment\n"
        "experts = 8\n"
        "batch = 16,32\n"
        "chips = 8\n"
        "dp = 1\n"
        "tp = 8\n"
        "pp = 1\n"
        "sram_sleep = 0.25\n"
        "\n"
        "[scenario plain]\n"
        "family = diffusion\n"
        "model = gligen\n"
        "batch = 256\n"
        "chips = 64\n");
    auto first_text = canonicalSpecText(first.scenarios);
    auto second = parseSpecText(first_text);

    // Reparsing the canonical dump yields identical scenarios and an
    // identical dump — textual variants of the same scenarios share
    // one canonical text.
    ASSERT_EQ(second.scenarios.size(), first.scenarios.size());
    for (std::size_t i = 0; i < first.scenarios.size(); ++i) {
        EXPECT_TRUE(first.scenarios[i]->sameScenario(
            *second.scenarios[i]))
            << first.scenarios[i]->identityText() << "\nvs\n"
            << second.scenarios[i]->identityText();
        EXPECT_EQ(first.scenarios[i]->name,
                  second.scenarios[i]->name);
    }
    EXPECT_EQ(canonicalSpecText(second.scenarios), first_text);
}

TEST(SpecParser, DigestIgnoresFormattingButNotContent)
{
    auto a = parseSpecText(
        "@regate-spec v1\n[scenario a]\nfamily = dlrm\n"
        "model = s\nbatch = 8\nchips = 1\n");
    auto b = parseSpecText(
        "@regate-spec v1\n#hi\n[scenario a]\n  family=dlrm\n"
        "model =s\n\nbatch =  8\nchips = 1   # pod\n");
    EXPECT_EQ(canonicalSpecText(a.scenarios),
              canonicalSpecText(b.scenarios));

    auto c = parseSpecText(
        "@regate-spec v1\n[scenario a]\nfamily = dlrm\n"
        "model = s\nbatch = 16\nchips = 1\n");
    EXPECT_NE(canonicalSpecText(a.scenarios),
              canonicalSpecText(c.scenarios));
}

TEST(SpecParser, MissingFileNamed)
{
    try {
        parseSpecFile("/nonexistent/regate.spec");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "/nonexistent/regate.spec"),
                  std::string::npos);
    }
}

}  // namespace
}  // namespace models
}  // namespace regate
