#include "models/workload.h"

#include <algorithm>
#include <iterator>

#include "common/error.h"
#include "models/registry.h"
#include "models/spec.h"

namespace regate {
namespace models {

namespace {

constexpr const char *kPaperSuiteFile = "examples/specs/paper_suite.spec";

// kPaperSuiteText: that file, which CMake copies into a raw string
// literal at configure time.
#include "paper_suite_spec.inc"

}  // namespace

std::string
workUnitName(WorkUnit unit)
{
    return kWorkUnits[static_cast<std::size_t>(unit)].label;
}

const std::vector<std::shared_ptr<const ScenarioSpec>> &
paperSuite()
{
    static const auto rows = [] {
        std::vector<std::shared_ptr<const ScenarioSpec>> out;
        try {
            out = parseSpecText(kPaperSuiteText, kPaperSuiteFile).scenarios;
        } catch (const ConfigError &e) {
            throw LogicError(std::string("built-in paper suite: ") +
                             e.what());
        }
        REGATE_ASSERT(out.size() == 17, "built-in paper suite ",
                      kPaperSuiteFile, " gives ", out.size(),
                      " scenarios, not 17");
        return out;
    }();
    return rows;
}

const std::shared_ptr<const ScenarioSpec> &
builtinScenario(std::string_view name)
{
    const auto &rows = paperSuite();
    auto it = std::ranges::find(rows, name, [](const auto &row) {
        return std::string_view(row->name);
    });
    if (it != rows.end())
        return *it;
    std::string known;
    for (const auto &row : rows)
        known += known.empty() ? row->name : ", " + row->name;
    throw ConfigError("unknown paper workload '" + std::string(name) +
                      "' (built-in: " + known + ")");
}

std::shared_ptr<const ScenarioSpec>
builtinScenarioOf(const ScenarioSpec &spec)
{
    // An explicit parallelism split, extra keys, or gating overrides
    // always mean a custom scenario, even if the spec happens to
    // reproduce a paper configuration: the overrides are part of its
    // identity and its grid rows must keep the scenario's own name.
    bool overridden = std::ranges::any_of(
        spec.gating, [](const auto &slot) { return slot.has_value(); });
    if (spec.parSet || !spec.extra.empty() || overridden)
        return nullptr;
    for (const auto &b : paperSuite()) {
        if (spec.family == b->family && spec.model == b->model &&
            spec.batch == b->batch && spec.chips == b->chips &&
            spec.seqLen == b->seqLen && spec.outLen == b->outLen &&
            spec.unit == b->unit)
            return b;
    }
    return nullptr;
}

// ---- Kept only because perfbench/layer_trace.cc calls them ----

namespace {

/** Family key of each WorkloadFamily, in enum order. */
constexpr const char *kFamilyKeys[] = {
    "llama-train", "llama-prefill", "llama-decode", "dlrm", "diffusion",
};

const ScenarioSpec &
row(Workload w)
{
    return *paperSuite()[static_cast<std::size_t>(w)];
}

}  // namespace

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> all = [] {
        std::vector<Workload> out;
        for (std::size_t i = 0; i < paperSuite().size(); ++i)
            out.push_back(static_cast<Workload>(i));
        return out;
    }();
    return all;
}

std::string
workloadName(Workload w)
{
    return row(w).name;
}

WorkloadFamily
familyOf(Workload w)
{
    const auto &key = row(w).family;
    auto it = std::find(std::begin(kFamilyKeys), std::end(kFamilyKeys), key);
    return static_cast<WorkloadFamily>(it - std::begin(kFamilyKeys));
}

std::string
workloadFamilyName(WorkloadFamily family)
{
    auto index = static_cast<std::size_t>(family);
    REGATE_CHECK(index < std::size(kFamilyKeys), "unknown family");
    return familyRow(kFamilyKeys[index]).label;
}

WorkUnit
workUnitOf(Workload w)
{
    return scenarioWorkUnit(row(w));
}

RunSetup
defaultSetup(Workload w, arch::NpuGeneration gen)
{
    return defaultScenarioSetup(row(w), gen);
}

graph::OperatorGraph
buildGraph(Workload w, const RunSetup &setup)
{
    return buildScenarioGraph(row(w), setup);
}

}  // namespace models
}  // namespace regate
