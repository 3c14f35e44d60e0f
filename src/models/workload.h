/**
 * @file
 * The paper's benchmark suite (Table 1) as a flat registry of 17
 * workload instances, with the Table 4 most-energy-efficient
 * SLO-compliant configurations for NPU-D and heuristic scaling for
 * the other generations (larger HBM -> fewer chips, §3).
 */

#ifndef REGATE_MODELS_WORKLOAD_H
#define REGATE_MODELS_WORKLOAD_H

#include <cstddef>
#include <cstdint>
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
     * construction, so a RunSetup can key the compiled-graph cache:
     * equal setups build and compile to identical graphs.
     */
    bool
    operator==(const RunSetup &o) const
    {
        return chips == o.chips && batch == o.batch && par == o.par;
    }
    bool operator!=(const RunSetup &o) const { return !(*this == o); }

    /** Content hash over the fields operator== compares. */
    std::size_t contentHash() const;
};

/** Default sequence lengths (Table 1). */
constexpr std::int64_t kTrainSeqLen = 4096;
constexpr std::int64_t kPrefillSeqLen = 4096;
constexpr std::int64_t kDecodeOutLen = 512;

/** All 17 workloads in paper order. */
const std::vector<Workload> &allWorkloads();

/** Workloads of one family, in paper order. */
std::vector<Workload> workloadsOf(WorkloadFamily family);

std::string workloadName(Workload w);
std::string workloadFamilyName(WorkloadFamily family);
WorkloadFamily familyOf(Workload w);
WorkUnit workUnitOf(Workload w);
std::string workUnitName(WorkUnit unit);

/**
 * The canonical built-in ScenarioSpec of a paper workload (Table 1
 * identity + Table 4 chips/batch, defaults filled). Every enum-keyed
 * function below is a thin shim replaying this spec through the
 * GeneratorRegistry — the enum path and the spec path are one code
 * path.
 */
const ScenarioSpec &builtinSpec(Workload w);

/**
 * True (and *out set) when @p spec is identical to a paper workload:
 * grid construction normalizes such specs onto the enum identity so
 * spec-driven runs render byte-identical to enum-driven ones. Display name and gating overrides are ignored
 * (gating rides in the grid's params, not the workload identity).
 */
bool builtinWorkloadOf(const ScenarioSpec &spec, Workload *out);

/** Table 4 configuration (defined for NPU-D). */
RunSetup table4Setup(Workload w);

/**
 * Configuration for an arbitrary generation: Table 4 chips scaled up
 * if the model (weights + optimizer state + KV cache) does not fit
 * the generation's HBM.
 */
RunSetup defaultSetup(Workload w, arch::NpuGeneration gen);

/** Build the per-chip operator graph for one run. */
graph::OperatorGraph buildGraph(Workload w, const RunSetup &setup);

/** Work units produced by one run (tokens, requests, ...). */
double unitsPerRun(Workload w, const RunSetup &setup);

/** Per-chip model-state bytes that must fit in HBM. */
double modelStateBytes(Workload w);

}  // namespace models
}  // namespace regate

#endif  // REGATE_MODELS_WORKLOAD_H
