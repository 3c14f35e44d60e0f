/**
 * @file
 * Tests for the text workload-spec parser (models/spec.h): the
 * strict error matrix (every violation a named ConfigError carrying
 * the offending source:line), grid expansion, and the canonical
 * round-trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/prng.h"
#include "models/registry.h"
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

    // The walk stops before a step would pass hi, so a range that ends
    // near INT64_MAX neither overflows nor runs on.
    file = parseSpecText(
        "@regate-spec v1\n[scenario top]\nfamily = dlrm\nmodel = s\n"
        "batch = 9223372036854775800..9223372036854775807:+5\n"
        "chips = 1\n");
    ASSERT_EQ(file.scenarios.size(), 2u);
    EXPECT_EQ(file.scenarios[0]->batch, 9223372036854775800);
    EXPECT_EQ(file.scenarios[1]->batch, 9223372036854775805);
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
        "delay_scale = 2\n"
        "sram_off = 0.125\n"
        "logic_off = 0.5\n"
        "\n"
        "[scenario plain]\n"
        "family = diffusion\n"
        "model = gligen\n"
        "batch = 256\n"
        "chips = 64\n");
    auto first_text = canonicalSpecText(first.scenarios);
    auto second = parseSpecText(first_text);

    // The gating keys follow the other keys in kGatingKeys' row
    // order, whatever order the spec set them in.
    EXPECT_NE(first_text.find("experts = 8\ntop_k = 2\n"
                              "logic_off = 0.5\nsram_sleep = 0.25\n"
                              "sram_off = 0.125\ndelay_scale = 2\n"
                              "\n[scenario mix@batch=32]"),
              std::string::npos)
        << first_text;

    // Reparsing the canonical dump yields identical scenarios and an
    // identical dump — textual variants of the same scenarios share
    // one canonical text.
    ASSERT_EQ(second.scenarios.size(), first.scenarios.size());
    for (std::size_t i = 0; i < first.scenarios.size(); ++i) {
        EXPECT_EQ(canonicalSpecText({first.scenarios[i]}),
                  canonicalSpecText({second.scenarios[i]}));
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

/** The full message of the ConfigError parsing @p text raises. */
std::string
errorOf(const std::string &text)
{
    try {
        parseSpecText(text, "spec.txt");
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "(parsed)";
}

TEST(SpecParser, ErrorMessagesExact)
{
    // Every message, with its file:line, byte for byte.
    const std::string h = "@regate-spec v1\n";
    const std::string a = h + "[scenario a]\nfamily = dlrm\nmodel = s\n";
    const std::string p = "config error: spec.txt:";
    const std::string want =
        " (want an integer, a comma list, or lo..hi:*K / lo..hi:+K)";
    const std::pair<std::string, std::string> cases[] = {
        {"", p + "1: expected '@regate-spec v1' header in an empty spec"},
        {"# only a comment\n\n",
         p + "1: expected '@regate-spec v1' header in an empty spec"},
        {"@regate-spec v2\n",
         p + "1: expected '@regate-spec v1' header, got "
             "'@regate-spec v2'"},
        {h + "[scenario a\n",
         p + "2: malformed section '[scenario a' (want [scenario NAME])"},
        {h + "[sc a]\n",
         p + "2: malformed section '[sc a]' (want [scenario NAME])"},
        {h + "[scenario ]\n", p + "2: scenario section has no name"},
        {h + "[scenario a]\n", p + "2: scenario 'a' is empty"},
        {h + "family = dlrm\n",
         p + "2: key 'family' outside any [scenario NAME] section"},
        {h + "[scenario a]\nfamily dlrm\n",
         p + "3: malformed line 'family dlrm' (want 'key = value')"},
        {h + "[scenario a]\n= dlrm\n",
         p + "3: malformed line '= dlrm' (want 'key = value')"},
        {h + "[scenario a]\nfamily =\n",
         p + "3: malformed line 'family =' (want 'key = value')"},
        {h + "[scenario a]\nmodel = s\nbatch = 1\nchips = 1\n",
         p + "2: scenario 'a' has no 'family' key"},
        {a + "batch = 1,,2\nchips = 1\n",
         p + "5: malformed value for 'batch': '1,,2'" + want},
        {a + "batch = ,1\nchips = 1\n",
         p + "5: malformed value for 'batch': ',1'" + want},
        {a + "batch = 0x10\nchips = 1\n",
         p + "5: malformed value for 'batch': '0x10'" + want},
        {a + "batch = 99999999999999999999\nchips = 1\n",
         p + "5: malformed value for 'batch': '99999999999999999999'" +
             want},
        {a + "batch = 1..8:/2\nchips = 1\n",
         p + "5: bad distribution for 'batch': '1..8:/2' "
             "(want lo..hi:*K or lo..hi:+K)"},
        {a + "batch = 1..8:*\nchips = 1\n",
         p + "5: bad distribution for 'batch': '1..8:*' "
             "(want lo..hi:*K or lo..hi:+K)"},
        {a + "batch = -5..5:*2\nchips = 1\n",
         p + "5: bad distribution for 'batch': geometric lower bound "
             "must be >= 1"},
        {a + "batch = 0..4:*2\nchips = 1\n",
         p + "5: bad distribution for 'batch': geometric lower bound "
             "must be >= 1"},
        {a + "batch = 1..8:+0\nchips = 1\n",
         p + "5: bad distribution for 'batch': arithmetic step must "
             "be > 0"},
        {a + "batch = 1..5000:+1\nchips = 1\n",
         p + "5: distribution for 'batch' expands to more than 4096 "
             "values"},
        {a + "batch = 1..100:+1\nchips = 1..64:+1\n",
         p + "2: scenario 'a' expands to more than 4096 combinations"},
        {a + "batch = 1..3000:+1\nchips = 1\n[scenario b]\n"
             "family = dlrm\nmodel = s\nbatch = 1..3000:+1\n"
             "chips = 1\n",
         p + "7: spec expands to more than 4096 scenarios"},
        {a + "batch = 1\nchips = 1\nlogic_off = abc\n",
         p + "7: malformed value for 'logic_off': 'abc' (want a single "
             "finite number)"},
        {a + "batch = 1\nchips = 1\nlogic_off = 1e999\n",
         p + "7: malformed value for 'logic_off': '1e999' (want a "
             "single finite number)"},
        {a + "batch = 1\nchips = 1\nlogic_off = nan\n",
         p + "7: malformed value for 'logic_off': 'nan' (want a single "
             "finite number)"},
        {a + "batch = 1\nchips = 1\nlogic_off = 0.1,0.2\n",
         p + "7: malformed value for 'logic_off': '0.1,0.2' (want a "
             "single finite number)"},
        {a + "batch = 1\nchips = 0\n",
         p + "6: malformed value for 'chips': 0"},
        {a + "batch = 1\nchips = 1,99999999\n",
         p + "6: malformed value for 'chips': 99999999"},
        {a + "batch = 1\nchips = 1\ndp = 4294967297\n",
         p + "7: malformed value for 'dp': 4294967297"},
        {a + "batch = 1\nchips = 1\ntp = 0\n",
         p + "7: malformed value for 'tp': 0"},
        {a + "batch = 1\nchips = 1\ndp = 65536\ntp = 65536\npp = 16\n",
         p + "6: scenario 'a': inconsistent parallelism: chips (1) != "
             "tp*dp*pp (65536*65536*16 = 68719476736)"},
        {a + "batch = 1\nchips = 1\ndp = 16777216\ntp = 16777216\n"
             "pp = 16777216\n",
         p + "6: scenario 'a': inconsistent parallelism: chips (1) != "
             "tp*dp*pp (16777216*16777216*16777216 = more than 2^63)"},
        {a + "chips = 1\n",
         p + "2: config error: scenario 'a': batch is required (>= 1; "
             "got 0)"},
        {a + "batch = 1\nchips = 1\nseq_len = -1\n",
         p + "2: config error: scenario 'a': negative sequence length"},
        {a + "batch = 1\nchips = 1\ndelay_scale = 0\n",
         p + "2: config error: scenario 'a': delay_scale must be > 0"},
        {a + "batch = 1\nchips = 1\nlogic_off = -0.5\n",
         p + "2: config error: scenario 'a': bad logic_off value"},
        // Bad gating values are checked in kGatingKeys' row order
        // (logic_off, sram_sleep, sram_off, delay_scale), not in line
        // or key order.
        {a + "batch = 1\nchips = 1\ndelay_scale = 0\nlogic_off = -0.5\n",
         p + "2: config error: scenario 'a': bad logic_off value"},
        {a + "batch = 1\nchips = 1\ndelay_scale = 0\nsram_off = 2\n",
         p + "2: config error: scenario 'a': sram_off = 2 is not a "
             "leakage ratio in [0, 1]"},
        {h + "[scenario a]\nfamily = dlrm\nmodel = a=b\nbatch = 1\n"
             "chips = 1\n",
         p + "2: config error: scenario 'a': unknown dlrm model 'a=b' "
             "(want s, m, or l)"},
        {h + "[scenario a]\nfamily = llama-train\nmodel = 7b\n"
             "batch = 1\nchips = 1\n",
         p + "2: config error: scenario 'a': unknown llama model '7b' "
             "(want 8b, 13b, 70b, or 405b)"},
        {h + "[scenario a]\nfamily = diffusion\nmodel = sd\n"
             "batch = 1\nchips = 1\n",
         p + "2: config error: scenario 'a': unknown diffusion model "
             "'sd' (want dit-xl or gligen)"},
        {a + "batch = 1\nchips = 1\nunit = bogus\n",
         p + "2: config error: scenario 'a': unknown unit 'bogus'"},
        // KV caches no pod can hold: the NPU-D HBM refit names the
        // chip count instead of overflowing it.
        {h + "[scenario a]\nfamily = llama-decode\nmodel = 405b\n"
             "batch = 240000000\nchips = 64\nseq_len = 1000000\n",
         p + "2: config error: scenario 'a': 1.23926e+20 bytes of model "
             "state need 1.42929e+09 NPU-D chips (at most 16777216)"},
        {h + "[scenario a]\nfamily = llama-decode\nmodel = 405b\n"
             "batch = 1000000000000\nchips = 64\nseq_len = 1000000\n",
         p + "2: config error: scenario 'a': 5.1636e+23 bytes of model "
             "state need 5.95539e+12 NPU-D chips (at most 16777216)"},
    };
    for (const auto &[text, message] : cases)
        EXPECT_EQ(errorOf(text), message) << "spec:\n" << text;
}

TEST(SpecParser, LayoutErrorsWinOverValueErrors)
{
    // Every section is cut before a value error is reported: a layout
    // error anywhere wins, and of the value errors the first one does.
    const std::string h = "@regate-spec v1\n";
    const std::string bad = "[scenario a]\nfamily = dlrm\nmodel = s\n"
                            "batch = x\nchips = 1\n";
    const std::string p = "config error: spec.txt:";
    EXPECT_EQ(errorOf(h + bad + "[scenario b]\nfamily dlrm\n"),
              p + "8: malformed line 'family dlrm' (want 'key = value')");
    EXPECT_EQ(errorOf(h + bad + "[scenario a]\nfamily = dlrm\n"),
              p + "7: duplicate scenario section 'a'");
    EXPECT_EQ(errorOf(h + bad + "[scenario b]\n"),
              p + "7: scenario 'b' is empty");
    EXPECT_EQ(errorOf(h + "[scenario a]\nfamily = quantum\n"
                          "[scenario b]\n[scenario c]\nfamily = dlrm\n"),
              p + "4: scenario 'b' is empty");
    EXPECT_EQ(errorOf(h + "[scenario a]\nfamily = dlrm\nwarp = 1\n"
                          "[scenario b]\nfamily = dlrm\nfamily = s\n"),
              p + "7: duplicate key 'family' in scenario 'b' (first "
                  "set on line 6)");
    EXPECT_EQ(errorOf(h + "[scenario a]\nfamily = dlrm\nmodel = xxl\n"
                          "batch = 1\nchips = 1\nunit\n"),
              p + "7: malformed line 'unit' (want 'key = value')");
    EXPECT_EQ(errorOf(h + bad + "[scenario b]\nfamily = dlrm\n"
                          "model = s\nbatch = 1\nchips = y\n"),
              p + "5: malformed value for 'batch': 'x' (want an "
                  "integer, a comma list, or lo..hi:*K / lo..hi:+K)");
    // The scenario cap is a value error too.
    const std::string big = "family = dlrm\nmodel = s\n"
                            "batch = 1..3000:+1\nchips = 1\n";
    EXPECT_EQ(errorOf(h + "[scenario a]\n" + big + "[scenario b]\n" +
                      big + "[scenario c]\nwarp\n"),
              p + "13: malformed line 'warp' (want 'key = value')");
    EXPECT_EQ(errorOf(h + "[scenario a]\n" + big + "[scenario b]\n" +
                      big + "[scenario c]\nfamily = dlrm\nwarp = 1\n"),
              p + "7: spec expands to more than 4096 scenarios");
}

TEST(SpecParser, DuplicateMessagesNameBothLines)
{
    EXPECT_EQ(errorOf("@regate-spec v1\n[scenario a]\nfamily = dlrm\n"
                      "model = s\nbatch = 1\nchips = 1\n\n"
                      "[scenario  a ]\nfamily = dlrm\n"),
              "config error: spec.txt:8: duplicate scenario section "
              "'a'");
    EXPECT_EQ(errorOf("@regate-spec v1\n[scenario a]\nfamily = dlrm\n"
                      "model = s\nbatch = 1\n# again\n  batch=2\n"
                      "chips = 1\n"),
              "config error: spec.txt:7: duplicate key 'batch' in "
              "scenario 'a' (first set on line 5)");
}

TEST(SpecParser, GatingValuesTheModelCannotRepresent)
{
    // Leakage ratios are fractions of the active static power, and a
    // delay scale must keep every scaled Table-3 cycle count in range.
    const std::string a = "@regate-spec v1\n[scenario a]\nfamily = dlrm\n"
                          "model = s\nbatch = 1\nchips = 1\n";
    const std::string p = "config error: spec.txt:2: config error: "
                          "scenario 'a': ";
    EXPECT_EQ(errorOf(a + "logic_off = 1.5\n"),
              p + "logic_off = 1.5 is not a leakage ratio in [0, 1]");
    EXPECT_EQ(errorOf(a + "sram_sleep = 1.0001\n"),
              p + "sram_sleep = 1.0001 is not a leakage ratio in "
                  "[0, 1]");
    EXPECT_EQ(errorOf(a + "sram_off = 3\n"),
              p + "sram_off = 3 is not a leakage ratio in [0, 1]");
    EXPECT_EQ(errorOf(a + "delay_scale = 1e30\n"),
              p + "delay_scale = 1e+30 overflows the scaled Table-3 "
                  "cycle counts");
    // The bounds themselves are representable.
    EXPECT_EQ(parseSpecText(a + "logic_off = 1\nsram_sleep = 0\n"
                                "sram_off = 1\ndelay_scale = 1e15\n")
                  .scenarios.size(),
              1u);
}

const char *kLf = "@regate-spec v1\n"
                  "[scenario a]\n"
                  "family = dlrm\n"
                  "model = s\n"
                  "batch = 16,32\n"
                  "chips = 2\n"
                  "logic_off = 0.05\n";

TEST(SpecParser, CrlfLineEndings)
{
    std::string crlf;
    for (char ch : std::string(kLf))
        crlf += ch == '\n' ? std::string("\r\n") : std::string(1, ch);
    EXPECT_EQ(canonicalSpecText(parseSpecText(crlf).scenarios),
              canonicalSpecText(parseSpecText(kLf).scenarios));
    // Line numbers count CRLF lines; the value is quoted without \r.
    EXPECT_EQ(errorOf("@regate-spec v1\r\n[scenario a]\r\n"
                      "family = dlrm\r\nmodel = s\r\nbatch = x\r\n"),
              "config error: spec.txt:5: malformed value for 'batch': "
              "'x' (want an integer, a comma list, or lo..hi:*K / "
              "lo..hi:+K)");
}

TEST(SpecParser, CommentsAndSurroundingWhitespace)
{
    auto plain = canonicalSpecText(parseSpecText(kLf).scenarios);
    auto messy = parseSpecText(" \t@regate-spec v1   # header\n"
                               "\t[scenario   a ]# section\n"
                               "family=dlrm#no space\n"
                               "  model \t=\t s   \n"
                               "batch = 16 , 32   # list\n"
                               "chips =2\t\n"
                               "logic_off = 0.05 # gating\n"
                               "   # trailing comment line\n");
    EXPECT_EQ(canonicalSpecText(messy.scenarios), plain);
}

TEST(SpecParser, LastLineWithoutNewline)
{
    std::string text = kLf;
    text.pop_back();
    EXPECT_EQ(canonicalSpecText(parseSpecText(text).scenarios),
              canonicalSpecText(parseSpecText(kLf).scenarios));
    // The no-sections error names the last line, with or without a
    // final newline.
    EXPECT_EQ(errorOf("@regate-spec v1\n# c"),
              "config error: spec.txt:2: spec defines no "
              "[scenario NAME] sections");
    EXPECT_EQ(errorOf("@regate-spec v1\n# c\n"),
              "config error: spec.txt:2: spec defines no "
              "[scenario NAME] sections");
    EXPECT_EQ(errorOf("@regate-spec v1\n# c\n\n"),
              "config error: spec.txt:3: spec defines no "
              "[scenario NAME] sections");
}

TEST(SpecParser, ExpansionNames)
{
    // Only a multi-valued key suffixes the name; single-valued lists
    // and ranges, strings and gating keys do not.
    auto file = parseSpecText(
        "@regate-spec v1\n[scenario s]\nfamily = dlrm\nmodel = s\n"
        "batch = 16,32\nchips = 4..4:*2\nlogic_off = 0.1\n"
        "[scenario t]\nfamily = dlrm\nmodel = m\nbatch = 64\n"
        "chips = 1..8:+3\n");
    ASSERT_EQ(file.scenarios.size(), 5u);
    EXPECT_EQ(file.scenarios[0]->name, "s@batch=16");
    EXPECT_EQ(file.scenarios[1]->name, "s@batch=32");
    EXPECT_EQ(file.scenarios[1]->chips, 4);
    EXPECT_EQ(file.scenarios[2]->name, "t@chips=1");
    EXPECT_EQ(file.scenarios[3]->name, "t@chips=4");
    EXPECT_EQ(file.scenarios[4]->name, "t@chips=7");
    const decltype(ScenarioSpec::gating) logic_off = {0.1, {}, {}, {}};
    EXPECT_EQ(file.scenarios[0]->gating, logic_off);
    EXPECT_EQ(file.scenarios[2]->gating, decltype(logic_off){});
}

TEST(SpecParser, GatingSweepCanonicalRoundTrip)
{
    // 150 gating-override points x the five sensitivity workloads:
    // the shape of the §6.5 sweeps.
    const char *workloads[][5] = {
        {"Train-405B", "llama-train", "405b", "32", "16"},
        {"Prefill-405B", "llama-prefill", "405b", "64", "256"},
        {"Decode-405B", "llama-decode", "405b", "2048", "64"},
        {"DLRM-L", "dlrm", "l", "4096", "8"},
        {"DiT-XL", "diffusion", "dit-xl", "8192", "64"},
    };
    const char *scales[] = {"0.5", "1.0", "1.5", "2.5", "4.0"};
    const char *logic[] = {"0.01", "0.03", "0.1", "0.2", "0.6"};
    const char *sleep[] = {"0.15", "0.25", "0.4", "0.8", "0.5", "0.3"};
    std::string text = "@regate-spec v1\n";
    int point = 0;
    for (const char *scale : scales) {
        for (const char *lo : logic) {
            for (const char *sl : sleep) {
                for (const auto &w : workloads) {
                    text += "\n[scenario g" + std::to_string(point) +
                            "-" + w[0] + "]\nfamily = " + w[1] +
                            "\nmodel = " + w[2] + "\nbatch = " + w[3] +
                            "\nchips = " + w[4] +
                            "\ndelay_scale = " + scale +
                            "\nlogic_off = " + lo +
                            "\nsram_sleep = " + sl +
                            "\nsram_off = 0.002\n";
                }
                ++point;
            }
        }
    }
    auto first = parseSpecText(text);
    ASSERT_EQ(first.scenarios.size(), 750u);
    auto dump = canonicalSpecText(first.scenarios);
    auto second = parseSpecText(dump);
    ASSERT_EQ(second.scenarios.size(), 750u);
    EXPECT_EQ(canonicalSpecText(second.scenarios), dump);
    EXPECT_EQ(second.scenarios[749]->name, "g149-DiT-XL");
    for (const auto &slot : second.scenarios[749]->gating)
        EXPECT_TRUE(slot.has_value());
}

TEST(SpecParser, NumbersParseAsStrtollAndStrtodDo)
{
    // Inputs at the edges of the number fast paths: each parses to
    // the value strtoll or strtod gives, or fails with the message
    // they lead to.
    const std::string a = "@regate-spec v1\n[scenario a]\nfamily = dlrm\n"
                          "model = s\nchips = 1\n";
    const std::string p = "config error: spec.txt:";
    auto batch_of = [&](const std::string &value) {
        return parseSpecText(a + "batch = " + value + "\n")
            .scenarios.at(0)
            ->batch;
    };
    EXPECT_EQ(batch_of("+4096"), 4096);
    EXPECT_EQ(batch_of("007"), 7);
    EXPECT_EQ(batch_of("9223372036854775807"), INT64_MAX);
    // Signed range ends and steps: 1, 2, 4, 8.
    EXPECT_EQ(parseSpecText(a + "batch = 1..+8:*+2\n").scenarios.size(),
              4u);
    const std::string want =
        "' (want an integer, a comma list, or lo..hi:*K / lo..hi:+K)";
    for (const char *bad : {"9223372036854775808", "-9223372036854775809",
                            "1_0", "0x10", "-", "--5", "5-"})
        EXPECT_EQ(errorOf(a + "batch = " + bad + "\n"),
                  p + "6: malformed value for 'batch': '" + bad + want);
    // Negative values parse; validation then names them.
    const std::string required =
        p + "2: config error: scenario 'a': batch is required (>= 1; got ";
    EXPECT_EQ(errorOf(a + "batch = -0\n"), required + "0)");
    EXPECT_EQ(errorOf(a + "batch = -12\n"), required + "-12)");
    EXPECT_EQ(errorOf(a + "batch = -9223372036854775808\n"),
              required + "-9223372036854775808)");

    const std::string g = a + "batch = 8\n";
    auto gating_of = [&](const std::string &key, const std::string &value) {
        auto file = parseSpecText(g + key + " = " + value + "\n");
        return file.scenarios.at(0)->gating[resolveKey(key).index].value();
    };
    // Bit for bit, so that -0.0 differs from 0.0.
    auto same = [](double x, double y) {
        return std::bit_cast<std::uint64_t>(x) ==
               std::bit_cast<std::uint64_t>(y);
    };
    const std::pair<const char *, double> ratios[] = {
        {"0.1", 0x1.999999999999ap-4},
        {"-0.0", -0x0p+0},
        {"0.30000000000000004", 0x1.3333333333334p-2},
        {"0.123456789012345", 0x1.f9add3746f62ep-4},
        {"0.1234567890123456", 0x1.f9add3746f659p-4},
        {"0.12345678901234567", 0x1.f9add3746f65ep-4},
        {"0.999999999999999", 0x1.ffffffffffff7p-1},
        {"0.0000000000000000000000001", 0x1.ef2d0f5da7dd9p-84},
        {"1.", 0x1p+0},
        {".5", 0x1p-1},
        {"5e-1", 0x1p-1},
        {"+0x1p-4", 0x1p-4},
    };
    for (const auto &[text, value] : ratios)
        EXPECT_TRUE(same(gating_of("logic_off", text), value)) << text;
    EXPECT_TRUE(same(gating_of("delay_scale", "1E2"), 0x1.9p+6));
    EXPECT_TRUE(same(gating_of("delay_scale", "2.675"),
                     0x1.5666666666666p+1));
    EXPECT_TRUE(same(gating_of("delay_scale", "1000000000000000"),
                     0x1.c6bf52634p+49));
    // Out of range (ERANGE) and non-finite values are rejected.
    for (const char *bad : {"1e-310", "1e-400", "inf", "nan", "1e", "."})
        EXPECT_EQ(errorOf(g + "logic_off = " + bad + "\n"),
                  p + "7: malformed value for 'logic_off': '" + bad +
                      "' (want a single finite number)");
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

TEST(SpecParser, UnreadableFileNamed)
{
    // A directory opens but cannot be read: that is the error, not
    // an empty spec.
    std::string dir = ::testing::TempDir();
    try {
        parseSpecFile(dir);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "config error: cannot read spec file " + dir);
    }
    // An empty regular file reads, and is an empty spec.
    std::string empty = dir + "regate_empty.spec";
    std::ofstream(empty).close();
    try {
        parseSpecFile(empty);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "config error: " + empty +
                      ":1: expected '@regate-spec v1' header in an "
                      "empty spec");
    }
    std::remove(empty.c_str());
    // A file whose size fstat cannot tell (procfs says 0) still reads
    // to its end.
    try {
        parseSpecFile("/proc/self/status");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "/proc/self/status:1: expected '@regate-spec v1' "
                      "header, got 'Name:"),
                  std::string::npos)
            << e.what();
    }
}


/** Every example spec's text, in file-name order. */
std::vector<std::string>
exampleSpecTexts()
{
    std::vector<std::filesystem::path> paths;
    for (const auto &entry :
         std::filesystem::directory_iterator(REGATE_SPEC_DIR))
        if (entry.path().extension() == ".spec")
            paths.push_back(entry.path());
    std::sort(paths.begin(), paths.end());
    std::vector<std::string> texts;
    for (const auto &path : paths) {
        std::ifstream in(path);
        std::ostringstream text;
        text << in.rdbuf();
        texts.push_back(text.str());
    }
    return texts;
}

/** @p text with one to four seeded mutations: byte edits, dropped or
 *  duplicated lines, and inserted `key = value` lines. */
std::string
mutateSpec(std::string text, Prng &rng)
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> k;
        for (const auto &row : kSharedKeys)
            k.emplace_back(row.key);
        for (const auto &row : kGatingKeys)
            k.emplace_back(row.key);
        for (const auto &family : familyTable())
            for (const auto &extra : family.extras)
                k.push_back(extra.key);
        k.push_back("bogus");
        return k;
    }();
    static const char *const values[] = {
        "nan", "-nan", "inf", "1e999", "-1e999", "1e-310", "0", "-0",
        "1", "-1", "0.5", "1.5", "2", "1e15", "0x10", "+4",
        "9223372036854775807", "-9223372036854775808",
        "9223372036854775808", "16777216", "16777217", "4294967297",
        "8..1:*2", "1..8:*2", "1..9:+4", "9..1:+1", "0..4:*2", "1..8:*",
        "1..8:+0", "4,8", "4,,8", ",", "2..2:+1", "llama-train", "moe",
        "dlrm", "diffusion", "8b", "405b", "s", "dit-xl", "token",
        "request", "bogus"};
    static const char bytes[] = "0123456789 \t\n#[]=,.:*+-_@eax";

    auto lineStarts = [&] {
        std::vector<std::size_t> starts{0};
        for (std::size_t i = 0; i < text.size(); ++i)
            if (text[i] == '\n' && i + 1 < text.size())
                starts.push_back(i + 1);
        return starts;
    };
    // The whole line at @p start, newline included.
    auto lineAt = [&](std::size_t start) {
        std::size_t end = text.find('\n', start);
        return end == std::string::npos ? text.size() - start
                                        : end + 1 - start;
    };
    for (auto n = rng.uniform(1, 4); n-- > 0;) {
        auto starts = lineStarts();
        std::size_t start = starts[rng.uniform(0, starts.size() - 1)];
        std::size_t at =
            text.empty() ? 0 : rng.uniform(0, text.size() - 1);
        char byte = bytes[rng.uniform(0, std::size(bytes) - 2)];
        switch (rng.uniform(0, 5)) {
          case 0:  // Overwrite a byte.
            if (!text.empty())
                text[at] = byte;
            break;
          case 1:  // Insert a byte.
            text.insert(at, 1, byte);
            break;
          case 2:  // Delete a byte.
            if (!text.empty())
                text.erase(at, 1);
            break;
          case 3:  // Drop a line.
            text.erase(start, lineAt(start));
            break;
          case 4: {  // Duplicate a line somewhere.
            std::string line = text.substr(start, lineAt(start));
            if (!line.empty() && line.back() != '\n')
                line += '\n';
            starts = lineStarts();
            text.insert(starts[rng.uniform(0, starts.size() - 1)], line);
            break;
          }
          default:  // Insert a `key = value` line.
            text.insert(start,
                        keys[rng.uniform(0, keys.size() - 1)] + " = " +
                            values[rng.uniform(0, std::size(values) - 1)] +
                            "\n");
            break;
        }
    }
    return text;
}

TEST(SpecParser, MutatedExampleSpecsParseOrFailNamed)
{
    // Every mutation of an example spec either parses, and its
    // canonical dump reparses to the same dump, or is a ConfigError
    // naming the source and a line of the text.
    auto seeds = exampleSpecTexts();
    ASSERT_FALSE(seeds.empty());
    Prng rng(20261019);
    constexpr int kInputs = 10000;
    int parsed = 0, failed = 0;
    std::vector<std::string> bad;
    for (int i = 0; i < kInputs; ++i) {
        std::string text =
            mutateSpec(seeds[rng.uniform(0, seeds.size() - 1)], rng);
        try {
            auto first = parseSpecText(text, "fuzz.spec").scenarios;
            auto dump = canonicalSpecText(first);
            auto second = parseSpecText(dump).scenarios;
            bool same = canonicalSpecText(second) == dump &&
                        second.size() == first.size();
            for (std::size_t s = 0; same && s < first.size(); ++s)
                same = second[s]->gating == first[s]->gating;
            if (!same)
                bad.push_back("dump does not round-trip:\n" + text);
            ++parsed;
        } catch (const ConfigError &e) {
            ++failed;
            // "config error: fuzz.spec:LINE: ", LINE a line of the
            // text or the one after its last newline.
            const std::string what = e.what();
            const std::string_view prefix = "config error: fuzz.spec:";
            const char *end = what.data() + what.size();
            const char *at = what.data() + std::min(prefix.size(),
                                                    what.size());
            long line = 0;
            auto [stop, ec] = std::from_chars(at, end, line);
            auto lines = std::count(text.begin(), text.end(), '\n') + 1;
            if (!what.starts_with(prefix) || ec != std::errc() ||
                !std::string_view(stop, end - stop).starts_with(": ") ||
                line < 1 || line > lines)
                bad.push_back("unnamed error '" + what + "':\n" + text);
        } catch (const std::exception &e) {
            bad.push_back(std::string("not a ConfigError: ") + e.what() +
                          ":\n" + text);
        }
    }
    std::printf("%d mutations: %d parsed, %d failed\n", kInputs, parsed,
                failed);
    EXPECT_TRUE(bad.empty()) << bad.size() << " bad inputs; first:\n"
                             << (bad.empty() ? "" : bad.front());
    // Both outcomes are exercised, not only the header check.
    EXPECT_GT(parsed, kInputs / 10);
    EXPECT_GT(failed, kInputs / 10);
}

}  // namespace
}  // namespace models
}  // namespace regate
