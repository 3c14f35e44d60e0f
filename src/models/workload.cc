#include "models/workload.h"

#include <algorithm>
#include <array>
#include <iterator>

#include "common/error.h"
#include "models/registry.h"

namespace regate {
namespace models {

namespace {

/** One paper workload: Table 1's identity at Table 4's NPU-D setup. */
struct BuiltinRow
{
    Workload workload;
    const char *name;    ///< Display name.
    const char *family;  ///< Generator key.
    const char *model;   ///< Model key within the family.
    int chips;
    std::int64_t batch;
};

/** The paper's workload table, in Workload (paper) order. */
constexpr BuiltinRow kRows[] = {
    {Workload::Train8B, "Llama3-8B-Train", "llama-train", "8b", 4, 32},
    {Workload::Train13B, "Llama2-13B-Train", "llama-train", "13b", 4, 32},
    {Workload::Train70B, "Llama3-70B-Train", "llama-train", "70b", 8, 32},
    {Workload::Train405B, "Llama3.1-405B-Train", "llama-train", "405b",
     16, 32},
    {Workload::Prefill8B, "Llama3-8B-Prefill", "llama-prefill", "8b", 1,
     4},
    {Workload::Prefill13B, "Llama2-13B-Prefill", "llama-prefill", "13b",
     1, 4},
    {Workload::Prefill70B, "Llama3-70B-Prefill", "llama-prefill", "70b",
     4096, 8192},
    {Workload::Prefill405B, "Llama3.1-405B-Prefill", "llama-prefill",
     "405b", 256, 64},
    {Workload::Decode8B, "Llama3-8B-Decode", "llama-decode", "8b", 1, 8},
    {Workload::Decode13B, "Llama2-13B-Decode", "llama-decode", "13b", 1,
     4},
    {Workload::Decode70B, "Llama3-70B-Decode", "llama-decode", "70b", 128,
     4096},
    {Workload::Decode405B, "Llama3.1-405B-Decode", "llama-decode", "405b",
     64, 2048},
    {Workload::DlrmS, "DLRM-S", "dlrm", "s", 8, 4096},
    {Workload::DlrmM, "DLRM-M", "dlrm", "m", 8, 4096},
    {Workload::DlrmL, "DLRM-L", "dlrm", "l", 8, 4096},
    {Workload::DiTXL, "DiT-XL", "diffusion", "dit-xl", 64, 8192},
    {Workload::Gligen, "GLIGEN", "diffusion", "gligen", 64, 256},
};
constexpr std::size_t kNumRows = std::size(kRows);
static_assert(
    [] {
        for (std::size_t i = 0; i < kNumRows; ++i)
            if (static_cast<std::size_t>(kRows[i].workload) != i)
                return false;
        return true;
    }(),
    "kRows must list the workloads in enum order");

/** Generator key of each WorkloadFamily, in enum order. */
constexpr const char *kFamilyKeys[] = {
    "llama-train", "llama-prefill", "llama-decode", "dlrm", "diffusion",
};

/** The rows, validated once into shared specs. */
const std::array<std::shared_ptr<const ScenarioSpec>, kNumRows> &
builtinScenarios()
{
    static const auto specs = [] {
        std::array<std::shared_ptr<const ScenarioSpec>, kNumRows> out;
        for (std::size_t i = 0; i < kNumRows; ++i) {
            const auto &row = kRows[i];
            ScenarioSpec s;
            s.name = row.name;
            s.family = row.family;
            s.model = row.model;
            s.chips = row.chips;
            s.batch = row.batch;
            validateScenario(s);
            out[i] = std::make_shared<const ScenarioSpec>(std::move(s));
        }
        return out;
    }();
    return specs;
}

}  // namespace

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> all = [] {
        std::vector<Workload> out;
        for (const auto &row : kRows)
            out.push_back(row.workload);
        return out;
    }();
    return all;
}

std::string
workUnitName(WorkUnit unit)
{
    switch (unit) {
      case WorkUnit::Iteration:
        return "Iter";
      case WorkUnit::Token:
        return "Token";
      case WorkUnit::Request:
        return "Request";
      case WorkUnit::Image:
        return "Image";
    }
    throw LogicError("unknown unit");
}

const std::shared_ptr<const ScenarioSpec> &
builtinScenario(Workload w)
{
    auto index = static_cast<std::size_t>(w);
    REGATE_CHECK(index < kNumRows, "unknown workload");
    return builtinScenarios()[index];
}

std::shared_ptr<const ScenarioSpec>
builtinScenarioOf(const ScenarioSpec &spec)
{
    // An explicit parallelism split, extra keys, or gating overrides
    // always mean a custom scenario, even if the spec happens to
    // reproduce a paper configuration: the overrides are part of its
    // identity and its grid rows must keep the scenario's own name.
    if (spec.parSet || !spec.extra.empty() || !spec.gating.empty())
        return nullptr;
    for (const auto &b : builtinScenarios()) {
        if (spec.family == b->family && spec.model == b->model &&
            spec.batch == b->batch && spec.chips == b->chips &&
            spec.seqLen == b->seqLen && spec.outLen == b->outLen &&
            spec.unit == b->unit)
            return b;
    }
    return nullptr;
}

std::string
workloadName(Workload w)
{
    return builtinScenario(w)->name;
}

WorkloadFamily
familyOf(Workload w)
{
    const auto &key = builtinScenario(w)->family;
    auto it = std::find(std::begin(kFamilyKeys), std::end(kFamilyKeys), key);
    return static_cast<WorkloadFamily>(it - std::begin(kFamilyKeys));
}

std::string
workloadFamilyName(WorkloadFamily family)
{
    auto index = static_cast<std::size_t>(family);
    REGATE_CHECK(index < std::size(kFamilyKeys), "unknown family");
    return GeneratorRegistry::instance()
        .require(kFamilyKeys[index])
        .familyLabel();
}

WorkUnit
workUnitOf(Workload w)
{
    return scenarioWorkUnit(*builtinScenario(w));
}

RunSetup
defaultSetup(Workload w, arch::NpuGeneration gen)
{
    return defaultScenarioSetup(*builtinScenario(w), gen);
}

graph::OperatorGraph
buildGraph(Workload w, const RunSetup &setup)
{
    return buildScenarioGraph(*builtinScenario(w), setup);
}

}  // namespace models
}  // namespace regate
