/**
 * @file
 * The paper's workload suite (Table 1's 17 instances at their Table 4
 * NPU-D chips/batch) as built-in scenario rows: the sections of
 * examples/specs/paper_suite.spec, compiled into the library. A row
 * replays through the same family table as any user spec, and is
 * looked up by its canonical name. kWorkUnits holds each work unit's
 * spec key and figure label.
 */

#ifndef REGATE_MODELS_WORKLOAD_H
#define REGATE_MODELS_WORKLOAD_H

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "arch/npu_config.h"
#include "graph/graph.h"
#include "models/parallelism.h"
#include "models/scenario.h"

namespace regate {
namespace models {

/** How one run is normalized in Fig. 2 (J/iter, J/token, ...). */
enum class WorkUnit { Iteration, Token, Request, Image };

/** A work unit's spec `unit` value and its figure label. */
struct WorkUnitRow
{
    const char *key;
    const char *label;
};

/** Every work unit's spellings, indexed by WorkUnit. */
inline constexpr WorkUnitRow kWorkUnits[] = {
    {"iteration", "Iter"}, {"token", "Token"},
    {"request", "Request"}, {"image", "Image"},
};

/** Pod/batch configuration for one run. */
struct RunSetup
{
    int chips = 1;
    std::int64_t batch = 1;
    Parallelism par;

    /**
     * Content equality over every field that influences graph
     * construction: equal setups build and compile to identical
     * graphs.
     */
    bool
    operator==(const RunSetup &o) const
    {
        return chips == o.chips && batch == o.batch && par == o.par;
    }
    bool operator!=(const RunSetup &o) const { return !(*this == o); }
};

/** Default sequence lengths (Table 1). */
constexpr std::int64_t kPrefillSeqLen = 4096;
constexpr std::int64_t kDecodeOutLen = 512;

/** Figure label of @p unit. */
std::string workUnitName(WorkUnit unit);

/**
 * The 17 rows in paper order: examples/specs/paper_suite.spec, parsed
 * on the first call into one shared, validated spec per section.
 */
const std::vector<std::shared_ptr<const ScenarioSpec>> &paperSuite();

/**
 * The paperSuite() row named @p name ("DLRM-S", "Llama3-70B-Decode");
 * a ConfigError naming it and listing the 17 names otherwise.
 */
const std::shared_ptr<const ScenarioSpec> &builtinScenario(
    std::string_view name);

/**
 * The built-in row @p spec duplicates, or null. Everything that builds
 * or searches a scenario is compared, the display name is not; a spec
 * with an explicit parallelism split, extra keys or gating overrides
 * is always custom. A duplicate comes back as the row, canonical name
 * included, so a `--spec` file of paper workloads renders exactly the
 * default run.
 */
std::shared_ptr<const ScenarioSpec> builtinScenarioOf(
    const ScenarioSpec &spec);

// ---- Kept only because perfbench/layer_trace.cc calls them ----
// This block and the Workload forwards in sim/ and carbon/ go with
// that tracer (ROADMAP item 6). A Workload indexes paperSuite();
// workload_test pins each enumerator to its row's name.

enum class Workload {
    Train8B, Train13B, Train70B, Train405B,
    Prefill8B, Prefill13B, Prefill70B, Prefill405B,
    Decode8B, Decode13B, Decode70B, Decode405B,
    DlrmS, DlrmM, DlrmL,
    DiTXL, Gligen,
};

enum class WorkloadFamily {
    LlmTraining, LlmPrefill, LlmDecode, DlrmInference, StableDiffusion,
};

const std::vector<Workload> &allWorkloads();
std::string workloadName(Workload w);
WorkloadFamily familyOf(Workload w);
std::string workloadFamilyName(WorkloadFamily family);
WorkUnit workUnitOf(Workload w);
RunSetup defaultSetup(Workload w, arch::NpuGeneration gen);
graph::OperatorGraph buildGraph(Workload w, const RunSetup &setup);

}  // namespace models
}  // namespace regate

#endif  // REGATE_MODELS_WORKLOAD_H
