#include "models/spec.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string_view>
#include <unordered_set>

#include "common/error.h"
#include "models/registry.h"

namespace regate {
namespace models {

namespace {

using std::string_view;
using Kind = KeyRef::Kind;

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

bool
isBlank(char c)
{
    return c == ' ' || c == '\t' || c == '\r';
}

string_view
trim(string_view s)
{
    std::size_t begin = 0, end = s.size();
    while (begin < end && isBlank(s[begin]))
        ++begin;
    while (end > begin && isBlank(s[end - 1]))
        --end;
    return s.substr(begin, end - begin);
}

/**
 * @p s as a whole base-10 integer, as strtoll reads it; false for
 * anything else or out of range. std::from_chars reads `[-]digits`
 * (nearly every value) to the same value; strtoll takes the rest
 * (a '+' sign, leading whitespace other than trim's).
 */
bool
parseInt(string_view s, std::int64_t *out)
{
    const char *last = s.data() + s.size();
    std::int64_t v = 0;
    auto [end, ec] = std::from_chars(s.data(), last, v);
    if (ec == std::errc() && end == last) {
        *out = v;
        return true;
    }
    if (s.empty())
        return false;
    const std::string text(s);  // strtoll needs a terminator.
    errno = 0;
    char *stop = nullptr;
    long long parsed = std::strtoll(text.c_str(), &stop, 10);
    if (!stop || stop == text.c_str() || *stop != '\0' || errno == ERANGE)
        return false;
    *out = parsed;
    return true;
}

/**
 * One integer value, a comma list, or a range distribution
 * `lo..hi:*K` (geometric) / `lo..hi:+K` (arithmetic), appended to
 * @p out. Every reject names the offending line.
 */
void
parseIntValues(string_view key, string_view text,
               const std::string &source, int line,
               std::vector<std::int64_t> *out)
{
    const std::size_t first = out->size();
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
        if (op == '*' && lo < 1)
            fail(source, line, "bad distribution for '" + str(key) +
                 "': geometric lower bound must be >= 1");
        if (op == '+' && step <= 0)
            fail(source, line, "bad distribution for '" + str(key) +
                 "': arithmetic step must be > 0");
        for (std::int64_t v = lo;;) {
            out->push_back(v);
            if (out->size() - first > kMaxScenarios)
                fail(source, line, "distribution for '" + str(key) +
                     "' expands to more than " +
                     std::to_string(kMaxScenarios) + " values");
            // Stop before the next value would pass hi (or overflow);
            // hi - v, taken unsigned, is exact for any v <= hi.
            if (op == '*' ? v > hi / step
                          : static_cast<std::uint64_t>(hi) -
                                    static_cast<std::uint64_t>(v) <
                                static_cast<std::uint64_t>(step))
                break;
            v = op == '*' ? v * step : v + step;
        }
        return;
    }

    // A comma list; a trailing comma ends it.
    for (std::size_t at = 0; at < text.size();) {
        auto comma = text.find(',', at);
        std::int64_t v = 0;
        if (!parseInt(trim(text.substr(at, comma - at)), &v))
            fail(source, line, "malformed value for '" + str(key) +
                 "': '" + str(text) + "' (want an integer, a comma "
                 "list, or lo..hi:*K / lo..hi:+K)");
        out->push_back(v);
        if (comma == string_view::npos)
            break;
        at = comma + 1;
    }
    if (out->size() == first)
        fail(source, line, "malformed value for '" + str(key) +
             "': empty value");
}

/** 10^0 .. 10^22: the powers of ten a double holds exactly. */
constexpr double kExactPow10[] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
    1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
    1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

/**
 * @p s as strtod reads it when it is `[-]digits[.digits]` with at most
 * 15 significant digits and at most 22 after the point; false for
 * anything else. This is Clinger's fast path: the digits as an
 * integer (below 2^53) and the power of ten are both exact doubles,
 * so their one correctly rounded quotient is the correctly rounded
 * value, which is what strtod returns.
 */
bool
parseShortDecimal(string_view s, double *out)
{
    bool negative = !s.empty() && s.front() == '-';
    std::uint64_t mantissa = 0;
    int significant = 0, digits = 0, fraction = 0;
    bool point = false;
    for (std::size_t i = negative; i < s.size(); ++i) {
        char c = s[i];
        if (c == '.' && !point) {
            point = true;
            continue;
        }
        if (c < '0' || c > '9')
            return false;
        significant += mantissa != 0 || c != '0';
        if (significant > 15)
            return false;
        mantissa = mantissa * 10 + static_cast<unsigned>(c - '0');
        ++digits;
        fraction += point;
    }
    if (digits == 0 || fraction > 22)
        return false;
    double v = static_cast<double>(mantissa) / kExactPow10[fraction];
    *out = negative ? -v : v;
    return true;
}

double
parseDoubleValue(string_view key, string_view value,
                 const std::string &source, int line)
{
    double v = 0;
    if (parseShortDecimal(value, &v))
        return v;
    const std::string text(value);  // strtod needs a terminator.
    if (!text.empty()) {
        errno = 0;
        char *end = nullptr;
        v = std::strtod(text.c_str(), &end);
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

/** One `key = value` line; both views point into the spec text. */
struct Entry
{
    string_view key;
    string_view value;
    int line = 0;
    /** The key's shared or gating row; extras resolve per family. */
    KeyRef ref;
};

/** One `[scenario NAME]` section, as far as it is cut; every view
 *  points into the spec text. */
struct Section
{
    string_view name;
    int line = 0;
    std::vector<Entry> entries;
};

/** Work space of expandSection, kept from one section to the next so
 *  that its vectors keep their capacity. */
struct Scratch
{
    /** An integer key and its values [first, first + count). */
    struct Axis
    {
        const Entry *entry;
        std::size_t first;
        std::size_t count;
    };
    std::vector<Axis> axes;
    /** Every axis's values, back to back. */
    std::vector<std::int64_t> values;
    /** The value each axis takes in the current combination. */
    std::vector<std::int64_t> picked;
};

/** Expand one section into validated scenarios. */
void
expandSection(const Section &section, const std::string &source,
              Scratch &scratch,
              std::vector<std::shared_ptr<const ScenarioSpec>> *out)
{
    const Entry *entries = section.entries.data();
    const Entry *end = entries + section.entries.size();
    const KeyRef family_key{Kind::Shared,
                            static_cast<std::uint8_t>(SharedKey::Family)};
    const Entry *family_entry =
        std::find_if(entries, end, [&](const Entry &e) {
            return e.ref == family_key;
        });
    if (family_entry == end)
        fail(source, section.line, "scenario '" + str(section.name) +
             "' has no 'family' key");
    string_view family_name = family_entry->value;
    const FamilyRow *family = findFamily(family_name);
    if (!family)
        fail(source, family_entry->line,
             unknownFamilyMessage(family_name));

    // Every key must be one the family documents: a shared or gating
    // key (resolved while cutting) or one of its extras.
    for (const Entry *e = entries; e != end; ++e) {
        KeyRef ref = e->ref.kind == Kind::Unknown
                         ? resolveKey(e->key, family)
                         : e->ref;
        if (ref.kind == Kind::Unknown) {
            std::string accepted;
            for (const auto &k : specKeys(*family))
                accepted += accepted.empty() ? k.key : ", " + k.key;
            fail(source, e->line, "unknown key '" + str(e->key) +
                 "' for family '" + str(family_name) +
                 "' (accepted: " + accepted + ")");
        }
    }

    // Parse every value once. Integer keys drive the expansion
    // odometer (declaration order; first key varies slowest).
    auto &axes = scratch.axes;
    auto &values = scratch.values;
    auto &picked = scratch.picked;
    axes.clear();
    values.clear();
    decltype(ScenarioSpec::gating) gating{};
    string_view model, unit;
    for (const Entry *e = entries; e != end; ++e) {
        if (e->ref.kind == Kind::Gating) {
            gating[e->ref.index] =
                parseDoubleValue(e->key, e->value, source, e->line);
            continue;
        }
        if (e->ref.kind == Kind::Shared) {
            auto key = static_cast<SharedKey>(e->ref.index);
            if (key == SharedKey::Family)
                continue;
            if (key == SharedKey::Model || key == SharedKey::Unit) {
                (key == SharedKey::Model ? model : unit) = e->value;
                continue;
            }
        }
        std::size_t first = values.size();
        parseIntValues(e->key, e->value, source, e->line, &values);
        axes.push_back({e, first, values.size() - first});
    }
    std::size_t combos = 1;
    for (const auto &axis : axes) {
        combos *= axis.count;
        if (combos > kMaxScenarios)
            fail(source, section.line, "scenario '" +
                 str(section.name) + "' expands to more than " +
                 std::to_string(kMaxScenarios) + " combinations");
    }

    picked.resize(axes.size());
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
            const auto &axis = axes[a];
            picked[a] = values[axis.first + rest % axis.count];
            rest /= axis.count;
        }

        bool par_given = false;
        Parallelism par;
        int chips_line = section.line;
        for (std::size_t a = 0; a < axes.size(); ++a) {
            const Entry &e = *axes[a].entry;
            std::int64_t value = picked[a];
            if (e.ref.kind != Kind::Shared) {
                spec.extra.emplace_back(e.key, value);
                continue;
            }
            // A pod dimension: at least one chip, at most kMaxChips.
            auto chip_count = [&] {
                if (value < 1 || value > kMaxChips)
                    fail(source, e.line, "malformed value for '" +
                         str(e.key) + "': " + std::to_string(value));
                return static_cast<int>(value);
            };
            auto key = static_cast<SharedKey>(e.ref.index);
            switch (key) {
              case SharedKey::Batch:
                spec.batch = value;
                break;
              case SharedKey::SeqLen:
                spec.seqLen = value;
                break;
              case SharedKey::OutLen:
                spec.outLen = value;
                break;
              case SharedKey::Chips:
                spec.chips = chip_count();
                chips_line = e.line;
                break;
              case SharedKey::Dp:
              case SharedKey::Tp:
              case SharedKey::Pp:
                (key == SharedKey::Dp   ? par.dp
                 : key == SharedKey::Tp ? par.tp
                                        : par.pp) = chip_count();
                par_given = true;
                break;
              case SharedKey::Family:
              case SharedKey::Model:
              case SharedKey::Unit:
                break;  // Text keys, never an axis.
            }
        }
        std::sort(spec.extra.begin(), spec.extra.end());
        if (par_given) {
            spec.parSet = true;
            spec.par = par;
            // Each degree is at most kMaxChips, so dp*tp fits an
            // int64_t; only all three near the bound pass 2^63.
            std::int64_t dp_tp = std::int64_t{par.dp} * par.tp;
            bool past_int64 = dp_tp > INT64_MAX / par.pp;
            if (past_int64 || spec.chips != dp_tp * par.pp)
                fail(source, chips_line, "scenario '" +
                     str(section.name) +
                     "': inconsistent parallelism: chips (" +
                     std::to_string(spec.chips) + ") != tp*dp*pp (" +
                     std::to_string(par.tp) + "*" +
                     std::to_string(par.dp) + "*" +
                     std::to_string(par.pp) + " = " +
                     (past_int64 ? "more than 2^63"
                                 : std::to_string(dp_tp * par.pp)) +
                     ")");
        }

        // Multi-valued keys tag the expanded name so every grid row
        // stays identifiable.
        for (std::size_t a = 0; a < axes.size(); ++a)
            if (axes[a].count > 1)
                ((spec.name += '@') += axes[a].entry->key) +=
                    "=" + std::to_string(picked[a]);

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
        // The shared keys in kSharedKeys' order, each field under its
        // own rule for when it is left out.
        auto put = [&](SharedKey key, const std::string &value) {
            auto name = kSharedKeys[static_cast<std::size_t>(key)].key;
            ((out += name) += " = ") += value;
            out += '\n';
        };
        put(SharedKey::Family, spec->family);
        if (!spec->model.empty())
            put(SharedKey::Model, spec->model);
        put(SharedKey::Batch, std::to_string(spec->batch));
        put(SharedKey::Chips, std::to_string(spec->chips));
        if (spec->seqLen != 0)
            put(SharedKey::SeqLen, std::to_string(spec->seqLen));
        if (spec->outLen != 0)
            put(SharedKey::OutLen, std::to_string(spec->outLen));
        if (spec->parSet) {
            put(SharedKey::Dp, std::to_string(spec->par.dp));
            put(SharedKey::Tp, std::to_string(spec->par.tp));
            put(SharedKey::Pp, std::to_string(spec->par.pp));
        }
        put(SharedKey::Unit, spec->unit);
        for (const auto &[key, value] : spec->extra)
            out += key + " = " + std::to_string(value) + "\n";
        for (std::size_t i = 0; i < kNumGatingKeys; ++i)
            if (spec->gating[i])
                ((out += kGatingKeys[i].key) += " = ") +=
                    canonicalDouble(*spec->gating[i]) + "\n";
    }
    return out;
}

SpecFile
parseSpecText(const std::string &text, const std::string &source)
{
    // One pass over the text cuts it into header-checked sections and
    // expands each as soon as it is cut. A layout error anywhere wins
    // over a value error, so the first value error waits, and stops
    // the expansion, until the whole text is cut.
    SpecFile file;
    std::exception_ptr value_error;
    auto sections = static_cast<std::size_t>(
        std::count(text.begin(), text.end(), '['));  // At most.
    file.scenarios.reserve(std::min(sections, kMaxScenarios + 1));
    std::unordered_set<string_view> names;
    names.reserve(sections);
    Section section;
    Scratch scratch;
    auto close_section = [&] {
        if (section.entries.empty())
            fail(source, section.line, "scenario '" +
                 str(section.name) + "' is empty");
        if (value_error)
            return;
        try {
            expandSection(section, source, scratch, &file.scenarios);
            if (file.scenarios.size() > kMaxScenarios)
                fail(source, section.line, "spec expands to more than " +
                     std::to_string(kMaxScenarios) + " scenarios");
        } catch (...) {
            value_error = std::current_exception();
        }
    };

    bool have_header = false;
    int line_no = 0;
    const std::size_t size = text.size();
    for (std::size_t at = 0; at < size;) {
        // A line's content ends at its first '#' or at its newline.
        std::size_t stop = at;
        while (stop < size && text[stop] != '\n' && text[stop] != '#')
            ++stop;
        auto line = trim(string_view(text).substr(at, stop - at));
        while (stop < size && text[stop] != '\n')
            ++stop;
        at = stop + 1;
        ++line_no;
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
            auto name = trim(line.substr(10, line.size() - 11));
            if (name.empty())
                fail(source, line_no, "scenario section has no name");
            if (!names.insert(name).second)
                fail(source, line_no, "duplicate scenario section '" +
                     str(name) + "'");
            if (section.line > 0)
                close_section();
            section.name = name;
            section.line = line_no;
            section.entries.clear();
            continue;
        }
        auto eq = line.find('=');
        if (eq == string_view::npos)
            fail(source, line_no, "malformed line '" + str(line) +
                 "' (want 'key = value')");
        Entry entry{trim(line.substr(0, eq)), trim(line.substr(eq + 1)),
                    line_no, {}};
        if (entry.key.empty() || entry.value.empty())
            fail(source, line_no, "malformed line '" + str(line) +
                 "' (want 'key = value')");
        if (section.line == 0)
            fail(source, line_no, "key '" + str(entry.key) +
                 "' outside any [scenario NAME] section");
        entry.ref = resolveKey(entry.key);
        for (const auto &earlier : section.entries)
            if (earlier.ref == entry.ref &&
                (entry.ref.kind != Kind::Unknown ||
                 earlier.key == entry.key))
                fail(source, line_no, "duplicate key '" +
                     str(entry.key) + "' in scenario '" +
                     str(section.name) + "' (first set on line " +
                     std::to_string(earlier.line) + ")");
        section.entries.push_back(entry);
    }
    if (!have_header)
        fail(source, 1, "expected '" + str(kHeader) +
             "' header in an empty spec");
    if (section.line == 0)
        fail(source, line_no > 0 ? line_no : 1,
             "spec defines no [scenario NAME] sections");
    close_section();
    if (value_error)
        std::rethrow_exception(value_error);
    return file;
}

SpecFile
parseSpecFile(const std::string &path)
{
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    REGATE_CHECK(fd >= 0, "cannot open spec file ", path);
    // A regular file is read into one buffer of its size; a pipe, or
    // a file that grew since fstat, appends what is left in chunks.
    struct stat st;
    std::string text;
    if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode))
        text.resize(static_cast<std::size_t>(st.st_size));
    char chunk[1 << 16];
    std::size_t size = 0;
    bool read_ok = true;
    for (;;) {
        bool room = size < text.size();
        ssize_t got = room ? ::read(fd, text.data() + size,
                                    text.size() - size)
                           : ::read(fd, chunk, sizeof(chunk));
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0) {
            read_ok = got == 0;
            break;
        }
        if (!room)
            text.append(chunk, static_cast<std::size_t>(got));
        size += static_cast<std::size_t>(got);
    }
    ::close(fd);
    // A directory opens but does not read.
    REGATE_CHECK(read_ok, "cannot read spec file ", path);
    text.resize(size);
    return parseSpecText(text, path);
}

}  // namespace models
}  // namespace regate
