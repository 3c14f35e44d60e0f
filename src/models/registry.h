/**
 * @file
 * The pluggable workload-generator API (in the spirit of CODES's
 * codes-workload-method table): each workload family registers one
 * WorkloadGenerator behind the GeneratorRegistry, and everything
 * downstream — the paper's built-in rows, the text-spec parser, the
 * figure binaries — constructs graphs exclusively through this
 * interface. Adding a scenario family means registering a
 * generator in the library; no figure binary changes.
 *
 * The 17 paper workloads are built-in spec rows (models/workload.h)
 * replayed through the same generators as any user spec: there is
 * one scenario path.
 */

#ifndef REGATE_MODELS_REGISTRY_H
#define REGATE_MODELS_REGISTRY_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/npu_config.h"
#include "graph/graph.h"
#include "models/scenario.h"
#include "models/workload.h"

namespace regate {
namespace models {

/** One accepted spec key with its one-line doc (--list-generators). */
struct SpecKeyInfo
{
    std::string key;
    std::string doc;
};

/**
 * One workload family's construction logic. Implementations are
 * stateless: every method is a pure function of the spec (already
 * validated + defaults filled) and the setup.
 */
class WorkloadGenerator
{
  public:
    virtual ~WorkloadGenerator() = default;

    /** Registry key ("llama-train", "dlrm", "moe", ...). */
    virtual std::string family() const = 0;

    /** Display label for figure grouping ("LLM Training", ...). */
    virtual std::string familyLabel() const = 0;

    /** Every spec key this family accepts, with docs. */
    virtual std::vector<SpecKeyInfo> specKeys() const = 0;

    /**
     * Reject invalid specs with a named ConfigError: unknown model,
     * missing batch/chips, inconsistent parallelism
     * (chips != dp*tp*pp), bad extra values.
     */
    virtual void validate(const ScenarioSpec &spec) const = 0;

    /** Fill family defaults (seq lens, unit) in place; idempotent. */
    virtual void fillDefaults(ScenarioSpec &spec) const = 0;

    /** Work unit of the (defaults-filled) spec. */
    virtual WorkUnit workUnit(const ScenarioSpec &spec) const = 0;

    /** Per-chip model-state bytes that must fit in HBM. */
    virtual double modelStateBytes(const ScenarioSpec &spec) const = 0;

    /**
     * The spec's anchor configuration (the Table-4 equivalent):
     * explicit parallelism if the spec set one, else the family's
     * heuristic split.
     */
    virtual RunSetup anchorSetup(const ScenarioSpec &spec) const = 0;

    /**
     * Re-split parallelism after an HBM capacity refit grew the pod
     * to @p chips (defaultScenarioSetup). Families without tensor
     * parallelism go all-dp.
     */
    virtual Parallelism scaleSplit(const ScenarioSpec &spec,
                                   int chips) const = 0;

    /** Build the per-chip operator graph for one run. */
    virtual graph::OperatorGraph build(const ScenarioSpec &spec,
                                       const RunSetup &setup) const = 0;

    /** Work units produced by one run. */
    virtual double unitsPerRun(const ScenarioSpec &spec,
                               const RunSetup &setup) const = 0;
};

/**
 * Process-wide generator table. The built-in families self-register
 * on first access (registerBuiltinGenerators), so a static-lib link
 * can never dead-strip them.
 */
class GeneratorRegistry
{
  public:
    static GeneratorRegistry &instance();

    /** Register a generator; throws ConfigError on a duplicate. */
    void add(std::unique_ptr<WorkloadGenerator> gen);

    /** Generator for @p family, or nullptr. */
    const WorkloadGenerator *find(const std::string &family) const;

    /** Generator for @p family; ConfigError listing the registered
     *  families when unknown. */
    const WorkloadGenerator &require(const std::string &family) const;

    /** Registered family keys, sorted. */
    std::vector<std::string> families() const;

  private:
    GeneratorRegistry() = default;
    std::map<std::string, std::unique_ptr<WorkloadGenerator>> gens_;
};

/** Register the built-in families (idempotent; generators.cc). */
void registerBuiltinGenerators(GeneratorRegistry &registry);

/** Shared tp-first parallelism split used by the LLM setups. */
Parallelism splitChips(int chips, int max_tp);

/** Canonical spec spelling of a work unit ("iteration", "token"...). */
std::string workUnitKey(WorkUnit unit);

/** Parse a spec unit key; false (out untouched) when unknown. */
bool parseWorkUnitKey(const std::string &key, WorkUnit *out);

/** validate() + fillDefaults() through the spec's generator. */
void validateScenario(ScenarioSpec &spec);

/** Anchor configuration of a validated spec (Table-4 equivalent). */
RunSetup scenarioSetup(const ScenarioSpec &spec);

/**
 * Anchor configuration scaled up when the model state does not fit
 * @p gen's HBM (larger HBM -> fewer chips, §3).
 */
RunSetup defaultScenarioSetup(const ScenarioSpec &spec,
                              arch::NpuGeneration gen);

/** Build the per-chip operator graph through the registry. */
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
