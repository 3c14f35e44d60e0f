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
 * The 17 paper workloads are built-in spec rows (models/workload.h)
 * replayed through the same table as any user spec: there is one
 * scenario path.
 */

#ifndef REGATE_MODELS_REGISTRY_H
#define REGATE_MODELS_REGISTRY_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

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

/** One workload family. */
struct FamilyRow
{
    std::string key;     ///< The spec's `family` value ("llama-train").
    std::string label;   ///< Figure-grouping label ("LLM Training").
    std::string models;  ///< Accepted `model` values, for the docs.
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

/** Whether @p row accepts spec key @p key (without allocating). */
bool acceptsKey(const FamilyRow &row, std::string_view key);

/** Every key @p row accepts with its doc: the shared keys, then its
 *  extras. */
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
