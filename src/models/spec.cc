#include "models/spec.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "common/error.h"
#include "models/registry.h"

namespace regate {
namespace models {

namespace {

constexpr const char *kHeader = "@regate-spec v1";

/** Expansion guard: a runaway range is a spec bug, not a sweep. */
constexpr std::size_t kMaxScenarios = 4096;

[[noreturn]] void
fail(const std::string &source, int line, const std::string &msg)
{
    throw ConfigError(source + ":" + std::to_string(line) + ": " +
                      msg);
}

std::string
trim(const std::string &s)
{
    auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    auto end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

bool
parseInt(const std::string &s, std::int64_t *out)
{
    if (s.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(s.c_str(), &end, 10);
    if (!end || end == s.c_str() || *end != '\0' || errno == ERANGE)
        return false;
    *out = v;
    return true;
}

/**
 * One integer value, a comma list, or a range distribution
 * `lo..hi:*K` (geometric) / `lo..hi:+K` (arithmetic). Every reject
 * names the offending line.
 */
std::vector<std::int64_t>
parseIntValues(const std::string &key, const std::string &text,
               const std::string &source, int line)
{
    std::vector<std::int64_t> out;
    auto range_at = text.find("..");
    if (range_at != std::string::npos) {
        std::int64_t lo = 0, hi = 0, step = 0;
        auto colon = text.find(':', range_at);
        if (colon == std::string::npos)
            fail(source, line, "bad distribution for '" + key + "': '" +
                 text + "' has no step (want lo..hi:*K or lo..hi:+K)");
        char op = colon + 1 < text.size() ? text[colon + 1] : '\0';
        if (!parseInt(trim(text.substr(0, range_at)), &lo) ||
            !parseInt(trim(text.substr(range_at + 2,
                                       colon - range_at - 2)), &hi) ||
            (op != '*' && op != '+') ||
            !parseInt(trim(text.substr(colon + 2)), &step))
            fail(source, line, "bad distribution for '" + key + "': '" +
                 text + "' (want lo..hi:*K or lo..hi:+K)");
        if (hi < lo)
            fail(source, line, "bad distribution for '" + key +
                 "': upper bound " + std::to_string(hi) +
                 " below lower bound " + std::to_string(lo));
        if (op == '*' && step <= 1)
            fail(source, line, "bad distribution for '" + key +
                 "': geometric step must be > 1");
        if (op == '+' && step <= 0)
            fail(source, line, "bad distribution for '" + key +
                 "': arithmetic step must be > 0");
        for (std::int64_t v = lo; v <= hi;
             v = op == '*' ? v * step : v + step) {
            out.push_back(v);
            if (out.size() > kMaxScenarios)
                fail(source, line, "distribution for '" + key +
                     "' expands to more than " +
                     std::to_string(kMaxScenarios) + " values");
            if (op == '*' && v > hi / step)
                break;  // Next multiply would overflow past hi.
        }
        return out;
    }

    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        std::int64_t v = 0;
        if (!parseInt(trim(item), &v))
            fail(source, line, "malformed value for '" + key + "': '" +
                 text + "' (want an integer, a comma list, or "
                 "lo..hi:*K / lo..hi:+K)");
        out.push_back(v);
    }
    if (out.empty())
        fail(source, line, "malformed value for '" + key +
             "': empty value");
    return out;
}

double
parseDoubleValue(const std::string &key, const std::string &text,
                 const std::string &source, int line)
{
    if (!text.empty()) {
        errno = 0;
        char *end = nullptr;
        double v = std::strtod(text.c_str(), &end);
        if (end && end != text.c_str() && *end == '\0' &&
            errno != ERANGE && std::isfinite(v))
            return v;
    }
    fail(source, line, "malformed value for '" + key + "': '" + text +
         "' (want a single finite number)");
}

std::string
canonicalDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

bool
isGatingKey(const std::string &key)
{
    return key == "logic_off" || key == "sram_sleep" ||
           key == "sram_off" || key == "delay_scale";
}

bool
isStringKey(const std::string &key)
{
    return key == "family" || key == "model" || key == "unit";
}

struct Entry
{
    std::string key;
    std::string value;
    int line = 0;
};

struct Section
{
    std::string name;
    int line = 0;
    std::vector<Entry> entries;

    const Entry *find(const std::string &key) const
    {
        for (const auto &e : entries)
            if (e.key == key)
                return &e;
        return nullptr;
    }
};

/** Split the text into header-checked sections of raw entries. */
std::vector<Section>
splitSections(const std::string &text, const std::string &source)
{
    std::vector<Section> sections;
    std::set<std::string> names;
    bool have_header = false;
    int line_no = 0;
    std::stringstream ss(text);
    std::string raw;
    while (std::getline(ss, raw)) {
        ++line_no;
        auto comment = raw.find('#');
        if (comment != std::string::npos)
            raw.resize(comment);
        auto line = trim(raw);
        if (line.empty())
            continue;
        if (!have_header) {
            if (line != kHeader)
                fail(source, line_no, "expected '" +
                     std::string(kHeader) + "' header, got '" + line +
                     "'");
            have_header = true;
            continue;
        }
        if (line.front() == '[') {
            if (line.back() != ']' ||
                line.rfind("[scenario ", 0) != 0)
                fail(source, line_no, "malformed section '" + line +
                     "' (want [scenario NAME])");
            Section section;
            section.name =
                trim(line.substr(10, line.size() - 11));
            section.line = line_no;
            if (section.name.empty())
                fail(source, line_no, "scenario section has no name");
            if (!names.insert(section.name).second)
                fail(source, line_no, "duplicate scenario section '" +
                     section.name + "'");
            if (!sections.empty() && sections.back().entries.empty())
                fail(source, sections.back().line, "scenario '" +
                     sections.back().name + "' is empty");
            sections.push_back(std::move(section));
            continue;
        }
        auto eq = line.find('=');
        if (eq == std::string::npos)
            fail(source, line_no, "malformed line '" + line +
                 "' (want 'key = value')");
        Entry entry;
        entry.key = trim(line.substr(0, eq));
        entry.value = trim(line.substr(eq + 1));
        entry.line = line_no;
        if (entry.key.empty() || entry.value.empty())
            fail(source, line_no, "malformed line '" + line +
                 "' (want 'key = value')");
        if (sections.empty())
            fail(source, line_no, "key '" + entry.key +
                 "' outside any [scenario NAME] section");
        for (const auto &prev : sections.back().entries)
            if (prev.key == entry.key)
                fail(source, line_no, "duplicate key '" + entry.key +
                     "' in scenario '" + sections.back().name +
                     "' (first set on line " +
                     std::to_string(prev.line) + ")");
        sections.back().entries.push_back(std::move(entry));
    }
    if (!have_header)
        fail(source, 1, "expected '" + std::string(kHeader) +
             "' header in an empty spec");
    if (!sections.empty() && sections.back().entries.empty())
        fail(source, sections.back().line, "scenario '" +
             sections.back().name + "' is empty");
    if (sections.empty())
        fail(source, line_no > 0 ? line_no : 1,
             "spec defines no [scenario NAME] sections");
    return sections;
}

/** Expand one section into validated scenarios. */
void
expandSection(const Section &section, const std::string &source,
              std::vector<std::shared_ptr<const ScenarioSpec>> *out)
{
    const auto *family_entry = section.find("family");
    if (!family_entry)
        fail(source, section.line, "scenario '" + section.name +
             "' has no 'family' key");
    const auto *generator =
        GeneratorRegistry::instance().find(family_entry->value);
    if (!generator) {
        std::string known;
        for (const auto &f :
             GeneratorRegistry::instance().families())
            known += known.empty() ? f : ", " + f;
        fail(source, family_entry->line, "unknown workload family '" +
             family_entry->value + "' (registered: " + known + ")");
    }

    // Every key must be one the family documents.
    auto keys = generator->specKeys();
    for (const auto &entry : section.entries) {
        bool known = std::any_of(keys.begin(), keys.end(),
                                 [&](const SpecKeyInfo &k) {
                                     return k.key == entry.key;
                                 });
        if (!known) {
            std::string accepted;
            for (const auto &k : keys)
                accepted += accepted.empty() ? k.key : ", " + k.key;
            fail(source, entry.line, "unknown key '" + entry.key +
                 "' for family '" + family_entry->value +
                 "' (accepted: " + accepted + ")");
        }
    }

    // Multi-valued integer keys drive the expansion odometer
    // (declaration order; first key varies slowest).
    struct Axis
    {
        std::string key;
        std::vector<std::int64_t> values;
        int line = 0;
    };
    std::vector<Axis> axes;
    for (const auto &entry : section.entries) {
        if (isStringKey(entry.key)) {
            continue;
        } else if (isGatingKey(entry.key)) {
            parseDoubleValue(entry.key, entry.value, source,
                             entry.line);
        } else {
            axes.push_back({entry.key,
                            parseIntValues(entry.key, entry.value,
                                           source, entry.line),
                            entry.line});
        }
    }

    std::size_t combos = 1;
    for (const auto &axis : axes) {
        combos *= axis.values.size();
        if (combos > kMaxScenarios)
            fail(source, section.line, "scenario '" + section.name +
                 "' expands to more than " +
                 std::to_string(kMaxScenarios) + " combinations");
    }

    for (std::size_t combo = 0; combo < combos; ++combo) {
        ScenarioSpec spec;
        spec.name = section.name;
        spec.family = family_entry->value;
        if (const auto *e = section.find("model"))
            spec.model = e->value;
        if (const auto *e = section.find("unit"))
            spec.unit = e->value;
        for (const auto &entry : section.entries)
            if (isGatingKey(entry.key))
                spec.gating.emplace_back(
                    entry.key, parseDoubleValue(entry.key, entry.value,
                                                source, entry.line));
        std::sort(spec.gating.begin(), spec.gating.end());

        // Walk the odometer (last axis fastest) and assign.
        std::size_t rest = combo;
        std::vector<std::pair<std::string, std::int64_t>> picked;
        for (auto it = axes.rbegin(); it != axes.rend(); ++it) {
            std::size_t at = rest % it->values.size();
            rest /= it->values.size();
            picked.emplace_back(it->key, it->values[at]);
        }
        std::reverse(picked.begin(), picked.end());

        bool par_given = false;
        Parallelism par;
        int chips_line = section.line;
        for (const auto &[key, value] : picked) {
            if (key == "batch") {
                spec.batch = value;
            } else if (key == "chips") {
                if (value < 1 || value > 1 << 24)
                    fail(source, section.find("chips")->line,
                         "malformed value for 'chips': " +
                         std::to_string(value));
                spec.chips = static_cast<int>(value);
                chips_line = section.find("chips")->line;
            } else if (key == "seq_len") {
                spec.seqLen = value;
            } else if (key == "out_len") {
                spec.outLen = value;
            } else if (key == "dp" || key == "tp" || key == "pp") {
                par_given = true;
                int v = static_cast<int>(value);
                (key == "dp" ? par.dp : key == "tp" ? par.tp
                                                    : par.pp) = v;
            } else {
                spec.extra.emplace_back(key, value);
            }
        }
        std::sort(spec.extra.begin(), spec.extra.end());
        if (par_given) {
            spec.parSet = true;
            spec.par = par;
            if (spec.chips != par.dp * par.tp * par.pp)
                fail(source, chips_line, "scenario '" + section.name +
                     "': inconsistent parallelism: chips (" +
                     std::to_string(spec.chips) + ") != tp*dp*pp (" +
                     std::to_string(par.tp) + "*" +
                     std::to_string(par.dp) + "*" +
                     std::to_string(par.pp) + " = " +
                     std::to_string(par.dp * par.tp * par.pp) + ")");
        }

        // Multi-valued keys tag the expanded name so every grid row
        // stays identifiable.
        for (std::size_t a = 0; a < axes.size(); ++a)
            if (axes[a].values.size() > 1)
                spec.name += "@" + picked[a].first + "=" +
                             std::to_string(picked[a].second);

        try {
            validateScenario(spec);
        } catch (const ConfigError &e) {
            fail(source, section.line, e.what());
        }
        out->push_back(
            std::make_shared<const ScenarioSpec>(std::move(spec)));
    }
}

}  // namespace

std::string
canonicalSpecText(
    const std::vector<std::shared_ptr<const ScenarioSpec>> &scenarios)
{
    std::string out = kHeader;
    out += "\n";
    for (const auto &spec : scenarios) {
        out += "\n[scenario " + spec->name + "]\n";
        out += "family = " + spec->family + "\n";
        if (!spec->model.empty())
            out += "model = " + spec->model + "\n";
        out += "batch = " + std::to_string(spec->batch) + "\n";
        out += "chips = " + std::to_string(spec->chips) + "\n";
        if (spec->seqLen != 0)
            out += "seq_len = " + std::to_string(spec->seqLen) + "\n";
        if (spec->outLen != 0)
            out += "out_len = " + std::to_string(spec->outLen) + "\n";
        if (spec->parSet) {
            out += "dp = " + std::to_string(spec->par.dp) + "\n";
            out += "tp = " + std::to_string(spec->par.tp) + "\n";
            out += "pp = " + std::to_string(spec->par.pp) + "\n";
        }
        out += "unit = " + spec->unit + "\n";
        for (const auto &[key, value] : spec->extra)
            out += key + " = " + std::to_string(value) + "\n";
        for (const auto &[key, value] : spec->gating)
            out += key + " = " + canonicalDouble(value) + "\n";
    }
    return out;
}

SpecFile
parseSpecText(const std::string &text, const std::string &source)
{
    SpecFile file;
    auto sections = splitSections(text, source);
    for (const auto &section : sections) {
        expandSection(section, source, &file.scenarios);
        if (file.scenarios.size() > kMaxScenarios)
            fail(source, section.line, "spec expands to more than " +
                 std::to_string(kMaxScenarios) + " scenarios");
    }
    return file;
}

SpecFile
parseSpecFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    REGATE_CHECK(in, "cannot open spec file ", path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return parseSpecText(buffer.str(), path);
}

}  // namespace models
}  // namespace regate
