/**
 * @file
 * The workload-family table (in the spirit of CODES's
 * codes-workload-method table): one const row per family, holding
 * what is plain data across families (key, label, models, default
 * unit and sequence lengths, parallelism split, extra spec keys) and
 * three entry points for what differs in code (validation, model-state
 * bytes, graph build). Everything downstream — the paper's built-in
 * rows, the text-spec parser, the figure binaries — reaches a family
 * through the free functions below, which look its row up by the
 * spec's `family` key. Adding a family means adding a row in
 * models/generators.cc; no figure binary changes.
 *
 * The rest of the spec vocabulary is one table each too: the keys
 * every family accepts are kSharedKeys below, a family's `model`
 * values are its model cards' keys (models/generators.cc), `unit`
 * values are kWorkUnits' (models/workload.h), and the gating
 * overrides are kGatingKeys below. The parser resolves each key once
 * against these (resolveKey), and a scenario stores each gating
 * override in its row's slot, so nothing looks a gating key up by
 * name after the parse.
 *
 * The 17 paper workloads are built-in spec rows (models/workload.h)
 * replayed through the same table as any user spec: there is one
 * scenario path.
 */

#ifndef REGATE_MODELS_REGISTRY_H
#define REGATE_MODELS_REGISTRY_H

#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "arch/gating_params.h"
#include "arch/npu_config.h"
#include "graph/graph.h"
#include "models/scenario.h"
#include "models/workload.h"

namespace regate {
namespace models {

/** One accepted spec key with its one-line doc (--list-generators). */
struct SpecKey
{
    std::string key;
    std::string doc;
    /** Value filled in when the spec leaves the key out; 0: none. */
    std::int64_t fallback = 0;
};

/** One gating-override spec key: a §6.5 sensitivity parameter. */
struct GatingKey
{
    std::string_view key;
    const char *doc;
    /** The leakage ratio it sets, in [0, 1]; null: the delay scale,
     *  which scales every Table-3 delay and BET. */
    double arch::LeakageRatios::*ratio;
};

/** Every gating-override key, in documented order: the order of
 *  ScenarioSpec::gating's slots, of their checks and of their
 *  canonical dump. */
inline constexpr GatingKey kGatingKeys[] = {
    {"logic_off", "gated-logic leakage ratio override",
     &arch::LeakageRatios::logicOff},
    {"sram_sleep", "SRAM sleep leakage ratio override",
     &arch::LeakageRatios::sramSleep},
    {"sram_off", "SRAM off leakage ratio override",
     &arch::LeakageRatios::sramOff},
    {"delay_scale", "gating delay/BET scale override", nullptr},
};
static_assert(std::size(kGatingKeys) == kNumGatingKeys,
              "ScenarioSpec::gating has one slot per kGatingKeys row");

/** The keys every family accepts besides the gating keys; each names
 *  its row of kSharedKeys. */
enum class SharedKey : std::uint8_t
{
    Family, Model, Batch, Chips, SeqLen, OutLen, Dp, Tp, Pp, Unit
};

/** One shared spec key. */
struct SharedKeyRow
{
    std::string_view key;
    const char *doc;  ///< `model`'s and `unit`'s end with their values.
};

/** Every shared key, indexed by SharedKey: the documented order, and
 *  the order models::canonicalSpecText writes them in. */
inline constexpr SharedKeyRow kSharedKeys[] = {
    {"family", "workload family (this generator)"},
    {"model", "model size: "},
    {"batch", "global batch size (required; int list/range ok)"},
    {"chips", "pod size (required; int list/range ok)"},
    {"seq_len", "input sequence length (family default if unset)"},
    {"out_len", "generated length (family default if unset)"},
    {"dp", "data-parallel replicas (with tp/pp: chips = dp*tp*pp)"},
    {"tp", "tensor-parallel shards"},
    {"pp", "pipeline-parallel stages"},
    {"unit", "work unit: "},
};
static_assert(std::size(kSharedKeys) ==
                      static_cast<std::size_t>(SharedKey::Unit) + 1 &&
                  kSharedKeys[static_cast<std::size_t>(SharedKey::Unit)]
                          .key == "unit",
              "kSharedKeys has one row per SharedKey, in its order");

/** One workload family. */
struct FamilyRow
{
    std::string key;     ///< The spec's `family` value ("llama-train").
    std::string label;   ///< Figure-grouping label ("LLM Training").
    std::string models;  ///< Its model cards' keys, for the docs.
    WorkUnit unit;       ///< Default work unit.
    std::int64_t seqLen; ///< Default seq_len; 0: none.
    std::int64_t outLen; ///< Default out_len; 0: none.
    /** Tensor-parallel-first anchor split and HBM refit; else all-dp. */
    bool tpFirst;
    /** Integer keys beyond the shared ones (MoE "experts"). */
    std::vector<SpecKey> extras;

    /**
     * Reject an unknown model and extra keys outside `extras` (then
     * bad extra values) with a named ConfigError.
     */
    void (*validate)(const ScenarioSpec &spec);
    /** Per-chip model-state bytes that must fit in HBM. */
    double (*stateBytes)(const ScenarioSpec &spec);
    /** The per-chip operator graph for one run. */
    graph::OperatorGraph (*build)(const ScenarioSpec &spec,
                                  const RunSetup &setup);
};

/** Every family, sorted by key. */
const std::vector<FamilyRow> &familyTable();

/** The row of @p family, or nullptr. */
const FamilyRow *findFamily(std::string_view family);

/** "unknown workload family '...' (registered: ...)". */
std::string unknownFamilyMessage(std::string_view family);

/** The row of @p family; ConfigError when there is none. */
const FamilyRow &familyRow(std::string_view family);

/** A spec key resolved against the one key table: a kSharedKeys
 *  row, a kGatingKeys row or an entry of a family's extras. */
struct KeyRef
{
    enum class Kind : std::uint8_t { Unknown, Shared, Gating, Extra };
    Kind kind = Kind::Unknown;
    /** The row in kSharedKeys, kGatingKeys or FamilyRow::extras. */
    std::uint8_t index = 0;

    bool operator==(const KeyRef &) const = default;
};

/** @p key resolved against the shared and gating keys, then, given
 *  @p row, its extras (without allocating); Kind::Unknown when none
 *  has it. */
KeyRef resolveKey(std::string_view key, const FamilyRow *row = nullptr);

/** Every key @p row accepts with its doc: the shared keys, the
 *  gating keys, then its extras. */
std::vector<SpecKey> specKeys(const FamilyRow &row);

/** Check the family-independent fields, fill the family defaults
 *  and validate through the spec's row. */
void validateScenario(ScenarioSpec &spec);

/** Anchor configuration of a validated spec (Table-4 equivalent). */
RunSetup scenarioSetup(const ScenarioSpec &spec);

/**
 * Anchor configuration scaled up when the model state does not fit
 * @p gen's HBM (larger HBM -> fewer chips, §3). ConfigError when the
 * fit needs more than kMaxChips chips.
 */
RunSetup defaultScenarioSetup(const ScenarioSpec &spec,
                              arch::NpuGeneration gen);

/** Build the per-chip operator graph through the spec's row. */
graph::OperatorGraph buildScenarioGraph(const ScenarioSpec &spec,
                                        const RunSetup &setup);

/** Work units produced by one run of the scenario. */
double scenarioUnitsPerRun(const ScenarioSpec &spec,
                           const RunSetup &setup);

/** Per-chip model-state bytes of the scenario. */
double scenarioModelStateBytes(const ScenarioSpec &spec);

/** Work unit of the scenario. */
WorkUnit scenarioWorkUnit(const ScenarioSpec &spec);

/** Figure-grouping label of the scenario's family. */
std::string scenarioFamilyLabel(const ScenarioSpec &spec);

}  // namespace models
}  // namespace regate

#endif  // REGATE_MODELS_REGISTRY_H
