/**
 * @file
 * The structured scenario description every workload family
 * (models/registry.h) consumes: family, model size, sequence lengths, batch, chips,
 * parallelism split, gating-parameter overrides, and work unit.
 *
 * A ScenarioSpec is the one identity of a simulated scenario: the 17
 * paper workloads are built-in spec rows (models/workload.h
 * builtinScenario), user-defined scenarios arrive through the text
 * parser (models/spec.h) without recompiling anything, and the
 * simulator's entry points take only specs.
 *
 * The `name` is display-only; models::canonicalSpecText spells every
 * field in a fixed order.
 */

#ifndef REGATE_MODELS_SCENARIO_H
#define REGATE_MODELS_SCENARIO_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "models/parallelism.h"

namespace regate {
namespace models {

/** Largest pod a spec may ask for or an HBM refit may grow to; also
 *  the bound on each of dp, tp and pp. */
constexpr int kMaxChips = 1 << 24;

struct ScenarioSpec
{
    /** Section name from the spec file; display-only, NOT identity. */
    std::string name;

    std::string family;  ///< Family key ("llama-train", "dlrm"...).
    std::string model;   ///< Model size within the family ("8b", "l").

    std::int64_t batch = 0;  ///< Global batch size (required).
    int chips = 0;           ///< Pod size (required).

    /** Sequence lengths; 0 = family default (validateScenario fills). */
    std::int64_t seqLen = 0;
    std::int64_t outLen = 0;

    /** Explicit parallelism split; unset = the family's heuristic. */
    bool parSet = false;
    Parallelism par;

    /** Work-unit name ("iteration", "token", "request", "image");
     *  empty = family default (validateScenario fills). */
    std::string unit;

    /** Family-specific integer keys (e.g. MoE "experts"), sorted
     *  by key. */
    std::vector<std::pair<std::string, std::int64_t>> extra;

    /** Gating-parameter overrides ("logic_off", "sram_sleep",
     *  "sram_off", "delay_scale"), sorted by key. Applied on top of
     *  whatever base GatingParams a grid sweeps. */
    std::vector<std::pair<std::string, double>> gating;

    /** Value of an extra key, or @p fallback when absent. */
    std::int64_t extraOr(const std::string &key,
                         std::int64_t fallback) const;
};

}  // namespace models
}  // namespace regate

#endif  // REGATE_MODELS_SCENARIO_H
