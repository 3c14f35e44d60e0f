/**
 * @file
 * Dependency-free text parser for workload scenario specs: a version
 * header, `[scenario NAME]` sections, and strict `key = value` lines.
 *
 *     @regate-spec v1
 *     # one scenario per section; '#' starts a comment
 *     [scenario moe-mixtral]
 *     family = moe
 *     model = 70b
 *     experts = 8
 *     batch = 16,32          # lists and ranges expand the grid
 *     chips = 8..64:*2       # geometric range; +N is arithmetic
 *     tp = 8
 *     dp = 1                 # with tp/pp: chips must equal dp*tp*pp
 *     pp = 1
 *
 * Integer keys accept multi-values (`a,b,c`, `lo..hi:*k`,
 * `lo..hi:+k`); a section expands to the deterministic cross-product
 * in key order, suffixing names (`moe-mixtral@batch=16`). Every
 * violation — unknown family, unknown key, malformed value, bad
 * distribution, `chips != tp*dp*pp`, empty or duplicate sections —
 * is a ConfigError naming the offending file:line.
 *
 * Gating keys take one finite number each, stored in the slot of
 * ScenarioSpec::gating their kGatingKeys row names. validateScenario
 * checks the slots in row order (logic_off, sram_sleep, sram_off,
 * delay_scale), so the first bad one in that order is the error; it
 * rejects a leakage ratio outside [0, 1] and a delay_scale whose
 * scaled Table-3 cycle counts overflow.
 *
 * parseSpecFile reads a regular file into one buffer of its size
 * (anything else, such as a pipe, in chunks to its end); a file that
 * opens but cannot be read, such as a directory, is a ConfigError
 * naming the path. The parser makes one pass over the text, keeping
 * lines, keys and values as views into it, and resolves each key once
 * against the key table (models/registry.h: kSharedKeys, kGatingKeys,
 * then the family's extras). It then parses each value once while it
 * expands the sections in order. Every section is cut before any is
 * expanded, so a layout error anywhere wins over a value error.
 *
 * Numbers are read as strtoll and strtod read them, with exact fast
 * paths for the common forms: an integer `[-]digits` goes through
 * std::from_chars, and a decimal `[-]digits[.digits]` with at most 15
 * significant digits and 22 after the point is its digits divided by
 * an exact power of ten (Clinger's fast path, correctly rounded as
 * strtod is). Everything else — a '+' sign, an exponent, hex, inf and
 * nan, longer decimals — falls back to strtoll/strtod, which decide
 * what is accepted.
 *
 * The canonical dump (defaults filled, keys in fixed order: the
 * shared keys, the extras by key, then the gating keys in row order)
 * round-trips through the parser to identical scenarios, so textual
 * variants of the same scenarios share one canonical text.
 */

#ifndef REGATE_MODELS_SPEC_H
#define REGATE_MODELS_SPEC_H

#include <memory>
#include <string>
#include <vector>

#include "models/scenario.h"

namespace regate {
namespace models {

/** A parsed, expanded, validated spec file. */
struct SpecFile
{
    /** Expanded scenarios, defaults filled, in declaration order. */
    std::vector<std::shared_ptr<const ScenarioSpec>> scenarios;
};

/** Parse spec text; @p source names it in errors ("file:line: ..."). */
SpecFile parseSpecText(const std::string &text,
                       const std::string &source = "<spec>");

/** Read and parse a spec file; ConfigError on any failure. */
SpecFile parseSpecFile(const std::string &path);

/**
 * Canonical dump of validated scenarios (defaults filled, keys in
 * fixed order); it reparses to identical scenarios.
 */
std::string canonicalSpecText(
    const std::vector<std::shared_ptr<const ScenarioSpec>> &scenarios);

}  // namespace models
}  // namespace regate

#endif  // REGATE_MODELS_SPEC_H
