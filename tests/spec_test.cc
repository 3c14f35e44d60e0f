/**
 * @file
 * Tests for the text workload-spec parser (models/spec.h): the
 * strict error matrix (every violation a named ConfigError carrying
 * the offending source:line), grid expansion, and the canonical
 * round-trip.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

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
        {a + "chips = 1\n",
         p + "2: config error: scenario 'a': batch is required (>= 1; "
             "got 0)"},
        {a + "batch = 1\nchips = 1\nseq_len = -1\n",
         p + "2: config error: scenario 'a': negative sequence length"},
        {a + "batch = 1\nchips = 1\ndelay_scale = 0\n",
         p + "2: config error: scenario 'a': delay_scale must be > 0"},
        {a + "batch = 1\nchips = 1\nlogic_off = -0.5\n",
         p + "2: config error: scenario 'a': bad logic_off value"},
        {h + "[scenario a]\nfamily = dlrm\nmodel = a=b\nbatch = 1\n"
             "chips = 1\n",
         p + "2: config error: scenario 'a': unknown dlrm model 'a=b' "
             "(want s, m, or l)"},
    };
    for (const auto &[text, message] : cases)
        EXPECT_EQ(errorOf(text), message) << "spec:\n" << text;
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
    ASSERT_EQ(file.scenarios[0]->gating.size(), 1u);
    EXPECT_EQ(file.scenarios[0]->gating[0].first, "logic_off");
    EXPECT_EQ(file.scenarios[0]->gating[0].second, 0.1);
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
    EXPECT_EQ(second.scenarios[749]->gating.size(), 4u);
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
