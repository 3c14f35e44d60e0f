#include "models/spec.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string_view>
#include <unordered_set>

#include "common/error.h"
#include "models/registry.h"

namespace regate {
namespace models {

namespace {

using std::string_view;

constexpr string_view kHeader = "@regate-spec v1";

/** Expansion guard: a runaway range is a spec bug, not a sweep. */
constexpr std::size_t kMaxScenarios = 4096;

[[noreturn]] void
fail(const std::string &source, int line, const std::string &msg)
{
    throw ConfigError(source + ":" + std::to_string(line) + ": " +
                      msg);
}

/** Quote a view in an error message. */
std::string
str(string_view s)
{
    return std::string(s);
}

string_view
trim(string_view s)
{
    auto begin = s.find_first_not_of(" \t\r");
    if (begin == string_view::npos)
        return {};
    auto end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

bool
parseInt(string_view s, std::int64_t *out)
{
    if (s.empty())
        return false;
    const std::string text(s);  // strtoll needs a terminator.
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(text.c_str(), &end, 10);
    if (!end || end == text.c_str() || *end != '\0' || errno == ERANGE)
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
parseIntValues(string_view key, string_view text,
               const std::string &source, int line)
{
    std::vector<std::int64_t> out;
    auto range_at = text.find("..");
    if (range_at != string_view::npos) {
        std::int64_t lo = 0, hi = 0, step = 0;
        auto colon = text.find(':', range_at);
        if (colon == string_view::npos)
            fail(source, line, "bad distribution for '" + str(key) +
                 "': '" + str(text) +
                 "' has no step (want lo..hi:*K or lo..hi:+K)");
        char op = colon + 1 < text.size() ? text[colon + 1] : '\0';
        if (!parseInt(trim(text.substr(0, range_at)), &lo) ||
            !parseInt(trim(text.substr(range_at + 2,
                                       colon - range_at - 2)), &hi) ||
            (op != '*' && op != '+') ||
            !parseInt(trim(text.substr(colon + 2)), &step))
            fail(source, line, "bad distribution for '" + str(key) +
                 "': '" + str(text) +
                 "' (want lo..hi:*K or lo..hi:+K)");
        if (hi < lo)
            fail(source, line, "bad distribution for '" + str(key) +
                 "': upper bound " + std::to_string(hi) +
                 " below lower bound " + std::to_string(lo));
        if (op == '*' && step <= 1)
            fail(source, line, "bad distribution for '" + str(key) +
                 "': geometric step must be > 1");
        if (op == '+' && step <= 0)
            fail(source, line, "bad distribution for '" + str(key) +
                 "': arithmetic step must be > 0");
        for (std::int64_t v = lo; v <= hi;
             v = op == '*' ? v * step : v + step) {
            out.push_back(v);
            if (out.size() > kMaxScenarios)
                fail(source, line, "distribution for '" + str(key) +
                     "' expands to more than " +
                     std::to_string(kMaxScenarios) + " values");
            if (op == '*' && v > hi / step)
                break;  // Next multiply would overflow past hi.
        }
        return out;
    }

    // A comma list; a trailing comma ends it.
    for (std::size_t at = 0; at < text.size();) {
        auto comma = text.find(',', at);
        std::int64_t v = 0;
        if (!parseInt(trim(text.substr(at, comma - at)), &v))
            fail(source, line, "malformed value for '" + str(key) +
                 "': '" + str(text) + "' (want an integer, a comma "
                 "list, or lo..hi:*K / lo..hi:+K)");
        out.push_back(v);
        if (comma == string_view::npos)
            break;
        at = comma + 1;
    }
    if (out.empty())
        fail(source, line, "malformed value for '" + str(key) +
             "': empty value");
    return out;
}

double
parseDoubleValue(string_view key, string_view value,
                 const std::string &source, int line)
{
    const std::string text(value);  // strtod needs a terminator.
    if (!text.empty()) {
        errno = 0;
        char *end = nullptr;
        double v = std::strtod(text.c_str(), &end);
        if (end && end != text.c_str() && *end == '\0' &&
            errno != ERANGE && std::isfinite(v))
            return v;
    }
    fail(source, line, "malformed value for '" + str(key) + "': '" +
         text + "' (want a single finite number)");
}

std::string
canonicalDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

bool
isGatingKey(string_view key)
{
    return key == "logic_off" || key == "sram_sleep" ||
           key == "sram_off" || key == "delay_scale";
}

bool
isStringKey(string_view key)
{
    return key == "family" || key == "model" || key == "unit";
}

/** One `key = value` line; both views point into the spec text. */
struct Entry
{
    string_view key;
    string_view value;
    int line = 0;
};

/** One `[scenario NAME]` section: entries [first, first + count). */
struct Section
{
    string_view name;
    int line = 0;
    std::size_t first = 0;
    std::size_t count = 0;
};

/** The spec text cut into sections; every view points into it. */
struct Layout
{
    std::vector<Section> sections;
    std::vector<Entry> entries;
};

/**
 * Cut the text into header-checked sections of raw entries: the one
 * pass over the text. Nothing is copied; names are checked for
 * duplicates as views.
 */
Layout
splitSections(string_view text, const std::string &source)
{
    Layout out;
    auto &sections = out.sections;
    auto &entries = out.entries;
    std::unordered_set<string_view> names;
    bool have_header = false;
    int line_no = 0;
    for (std::size_t at = 0; at < text.size();) {
        auto newline = text.find('\n', at);
        auto raw = text.substr(at, newline - at);
        at = newline == string_view::npos ? text.size() : newline + 1;
        ++line_no;
        auto line = trim(raw.substr(0, raw.find('#')));
        if (line.empty())
            continue;
        if (!have_header) {
            if (line != kHeader)
                fail(source, line_no, "expected '" + str(kHeader) +
                     "' header, got '" + str(line) + "'");
            have_header = true;
            continue;
        }
        if (line.front() == '[') {
            if (line.back() != ']' || !line.starts_with("[scenario "))
                fail(source, line_no, "malformed section '" +
                     str(line) + "' (want [scenario NAME])");
            Section section;
            section.name = trim(line.substr(10, line.size() - 11));
            section.line = line_no;
            section.first = entries.size();
            if (section.name.empty())
                fail(source, line_no, "scenario section has no name");
            if (!names.insert(section.name).second)
                fail(source, line_no, "duplicate scenario section '" +
                     str(section.name) + "'");
            if (!sections.empty() && sections.back().count == 0)
                fail(source, sections.back().line, "scenario '" +
                     str(sections.back().name) + "' is empty");
            sections.push_back(section);
            continue;
        }
        auto eq = line.find('=');
        if (eq == string_view::npos)
            fail(source, line_no, "malformed line '" + str(line) +
                 "' (want 'key = value')");
        Entry entry{trim(line.substr(0, eq)), trim(line.substr(eq + 1)),
                    line_no};
        if (entry.key.empty() || entry.value.empty())
            fail(source, line_no, "malformed line '" + str(line) +
                 "' (want 'key = value')");
        if (sections.empty())
            fail(source, line_no, "key '" + str(entry.key) +
                 "' outside any [scenario NAME] section");
        auto &section = sections.back();
        for (std::size_t i = section.first; i < entries.size(); ++i)
            if (entries[i].key == entry.key)
                fail(source, line_no, "duplicate key '" +
                     str(entry.key) + "' in scenario '" +
                     str(section.name) + "' (first set on line " +
                     std::to_string(entries[i].line) + ")");
        entries.push_back(entry);
        ++section.count;
    }
    if (!have_header)
        fail(source, 1, "expected '" + str(kHeader) +
             "' header in an empty spec");
    if (!sections.empty() && sections.back().count == 0)
        fail(source, sections.back().line, "scenario '" +
             str(sections.back().name) + "' is empty");
    if (sections.empty())
        fail(source, line_no > 0 ? line_no : 1,
             "spec defines no [scenario NAME] sections");
    return out;
}

/** A family's generator and accepted keys, fetched once per parse. */
struct Family
{
    string_view name;
    const WorkloadGenerator *generator;
    std::vector<SpecKeyInfo> keys;
};

/** Expand one section into validated scenarios. */
void
expandSection(const Section &section, const Entry *entries,
              std::vector<Family> &families, const std::string &source,
              std::vector<std::shared_ptr<const ScenarioSpec>> *out)
{
    const Entry *end = entries + section.count;
    const Entry *family_entry =
        std::find_if(entries, end, [](const Entry &e) {
            return e.key == "family";
        });
    if (family_entry == end)
        fail(source, section.line, "scenario '" + str(section.name) +
             "' has no 'family' key");
    string_view family_name = family_entry->value;
    auto family =
        std::find_if(families.begin(), families.end(),
                     [&](const Family &f) { return f.name == family_name; });
    if (family == families.end()) {
        const auto &registry = GeneratorRegistry::instance();
        const auto *generator = registry.find(str(family_name));
        if (!generator) {
            std::string known;
            for (const auto &f : registry.families())
                known += known.empty() ? f : ", " + f;
            fail(source, family_entry->line,
                 "unknown workload family '" + str(family_name) +
                 "' (registered: " + known + ")");
        }
        families.push_back(
            {family_name, generator, generator->specKeys()});
        family = families.end() - 1;
    }

    // Every key must be one the family documents.
    const auto &keys = family->keys;
    for (const Entry *e = entries; e != end; ++e) {
        bool known = std::any_of(keys.begin(), keys.end(),
                                 [&](const SpecKeyInfo &k) {
                                     return k.key == e->key;
                                 });
        if (!known) {
            std::string accepted;
            for (const auto &k : keys)
                accepted += accepted.empty() ? k.key : ", " + k.key;
            fail(source, e->line, "unknown key '" + str(e->key) +
                 "' for family '" + str(family_name) +
                 "' (accepted: " + accepted + ")");
        }
    }

    // Parse every value once. Multi-valued integer keys drive the
    // expansion odometer (declaration order; first key varies
    // slowest).
    struct Axis
    {
        string_view key;
        std::vector<std::int64_t> values;
        int line = 0;
    };
    std::vector<Axis> axes;
    std::vector<std::pair<std::string, double>> gating;
    string_view model, unit;
    for (const Entry *e = entries; e != end; ++e) {
        if (isStringKey(e->key)) {
            if (e->key == "model")
                model = e->value;
            else if (e->key == "unit")
                unit = e->value;
        } else if (isGatingKey(e->key)) {
            gating.emplace_back(
                str(e->key),
                parseDoubleValue(e->key, e->value, source, e->line));
        } else {
            axes.push_back(
                {e->key, parseIntValues(e->key, e->value, source,
                                        e->line),
                 e->line});
        }
    }
    std::sort(gating.begin(), gating.end());

    std::size_t combos = 1;
    for (const auto &axis : axes) {
        combos *= axis.values.size();
        if (combos > kMaxScenarios)
            fail(source, section.line, "scenario '" +
                 str(section.name) + "' expands to more than " +
                 std::to_string(kMaxScenarios) + " combinations");
    }

    std::vector<std::int64_t> picked(axes.size());
    for (std::size_t combo = 0; combo < combos; ++combo) {
        ScenarioSpec spec;
        spec.name = section.name;
        spec.family = family_name;
        spec.model = model;
        spec.unit = unit;
        spec.gating = gating;

        // Walk the odometer (last axis fastest) and assign.
        std::size_t rest = combo;
        for (std::size_t a = axes.size(); a-- > 0;) {
            const auto &values = axes[a].values;
            picked[a] = values[rest % values.size()];
            rest /= values.size();
        }

        bool par_given = false;
        Parallelism par;
        int chips_line = section.line;
        for (std::size_t a = 0; a < axes.size(); ++a) {
            string_view key = axes[a].key;
            std::int64_t value = picked[a];
            if (key == "batch") {
                spec.batch = value;
            } else if (key == "chips") {
                if (value < 1 || value > 1 << 24)
                    fail(source, axes[a].line,
                         "malformed value for 'chips': " +
                         std::to_string(value));
                spec.chips = static_cast<int>(value);
                chips_line = axes[a].line;
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
                fail(source, chips_line, "scenario '" +
                     str(section.name) +
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
                spec.name += "@" + str(axes[a].key) + "=" +
                             std::to_string(picked[a]);

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
    std::string out(kHeader);
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
    auto layout = splitSections(text, source);
    std::vector<Family> families;
    for (const auto &section : layout.sections) {
        expandSection(section, layout.entries.data() + section.first,
                      families, source, &file.scenarios);
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
    std::string text;
    char buf[1 << 16];
    while (in.read(buf, sizeof(buf)) || in.gcount() > 0)
        text.append(buf, static_cast<std::size_t>(in.gcount()));
    return parseSpecText(text, path);
}

}  // namespace models
}  // namespace regate
