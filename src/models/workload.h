/**
 * @file
 * The paper's workload table (Table 1's 17 instances at their Table 4
 * NPU-D chips/batch) as built-in scenario rows. Each row is validated
 * once into a shared ScenarioSpec (builtinScenario), and from there it
 * replays through the same generator registry as any user spec: the
 * simulator's entry points take only specs. The Workload enum names a
 * row of the table; nothing downstream branches on it.
 */

#ifndef REGATE_MODELS_WORKLOAD_H
#define REGATE_MODELS_WORKLOAD_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/npu_config.h"
#include "graph/graph.h"
#include "models/parallelism.h"
#include "models/scenario.h"

namespace regate {
namespace models {

/** All workload instances evaluated in the paper. */
enum class Workload {
    Train8B, Train13B, Train70B, Train405B,
    Prefill8B, Prefill13B, Prefill70B, Prefill405B,
    Decode8B, Decode13B, Decode70B, Decode405B,
    DlrmS, DlrmM, DlrmL,
    DiTXL, Gligen,
};

/** Workload families for grouping in figures. */
enum class WorkloadFamily {
    LlmTraining,
    LlmPrefill,
    LlmDecode,
    DlrmInference,
    StableDiffusion,
};

/** How one run is normalized in Fig. 2 (J/iter, J/token, ...). */
enum class WorkUnit { Iteration, Token, Request, Image };

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

/** All 17 workloads in paper order. */
const std::vector<Workload> &allWorkloads();

std::string workUnitName(WorkUnit unit);

/**
 * The built-in scenario of a paper workload: its table row (canonical
 * name, family and model keys, Table 4 chips/batch), validated with
 * defaults filled. One shared spec per row for the whole process.
 */
const std::shared_ptr<const ScenarioSpec> &builtinScenario(Workload w);

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

// Workload-keyed forwards through builtinScenario(w), kept only because
// perfbench/layer_trace.cc calls them. They go when that tracer becomes
// a driver over library spans (ROADMAP, "One benchmark").
std::string workloadName(Workload w);
WorkloadFamily familyOf(Workload w);
std::string workloadFamilyName(WorkloadFamily family);
WorkUnit workUnitOf(Workload w);
RunSetup defaultSetup(Workload w, arch::NpuGeneration gen);
graph::OperatorGraph buildGraph(Workload w, const RunSetup &setup);

}  // namespace models
}  // namespace regate

#endif  // REGATE_MODELS_WORKLOAD_H
