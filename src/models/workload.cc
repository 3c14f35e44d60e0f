#include "models/workload.h"

#include <array>

#include "common/error.h"
#include "models/diffusion.h"
#include "models/dlrm.h"
#include "models/llama.h"
#include "models/registry.h"

namespace regate {
namespace models {

namespace {

/** Llama variant behind an LLM workload. */
LlamaModel
llamaOf(Workload w)
{
    switch (w) {
      case Workload::Train8B:
      case Workload::Prefill8B:
      case Workload::Decode8B:
        return LlamaModel::L8B;
      case Workload::Train13B:
      case Workload::Prefill13B:
      case Workload::Decode13B:
        return LlamaModel::L13B;
      case Workload::Train70B:
      case Workload::Prefill70B:
      case Workload::Decode70B:
        return LlamaModel::L70B;
      case Workload::Train405B:
      case Workload::Prefill405B:
      case Workload::Decode405B:
        return LlamaModel::L405B;
      default:
        throw LogicError("not an LLM workload");
    }
}

DlrmModel
dlrmOf(Workload w)
{
    switch (w) {
      case Workload::DlrmS:
        return DlrmModel::S;
      case Workload::DlrmM:
        return DlrmModel::M;
      case Workload::DlrmL:
        return DlrmModel::L;
      default:
        throw LogicError("not a DLRM workload");
    }
}

/** Registry family key of a paper workload. */
std::string
familyKeyOf(Workload w)
{
    switch (familyOf(w)) {
      case WorkloadFamily::LlmTraining:
        return "llama-train";
      case WorkloadFamily::LlmPrefill:
        return "llama-prefill";
      case WorkloadFamily::LlmDecode:
        return "llama-decode";
      case WorkloadFamily::DlrmInference:
        return "dlrm";
      case WorkloadFamily::StableDiffusion:
        return "diffusion";
    }
    throw LogicError("unknown workload");
}

/** Spec model key of a paper workload. */
std::string
modelKeyOf(Workload w)
{
    switch (familyOf(w)) {
      case WorkloadFamily::LlmTraining:
      case WorkloadFamily::LlmPrefill:
      case WorkloadFamily::LlmDecode:
        switch (llamaOf(w)) {
          case LlamaModel::L8B:
            return "8b";
          case LlamaModel::L13B:
            return "13b";
          case LlamaModel::L70B:
            return "70b";
          case LlamaModel::L405B:
            return "405b";
        }
        break;
      case WorkloadFamily::DlrmInference:
        switch (dlrmOf(w)) {
          case DlrmModel::S:
            return "s";
          case DlrmModel::M:
            return "m";
          case DlrmModel::L:
            return "l";
        }
        break;
      case WorkloadFamily::StableDiffusion:
        return w == Workload::DiTXL ? "dit-xl" : "gligen";
    }
    throw LogicError("unknown workload");
}

/** Table 4 of the paper: chips / batch per workload on NPU-D. */
void
table4ChipsBatch(Workload w, int *chips, std::int64_t *batch)
{
    switch (w) {
      case Workload::Train8B:    *chips = 4;    *batch = 32;   return;
      case Workload::Train13B:   *chips = 4;    *batch = 32;   return;
      case Workload::Train70B:   *chips = 8;    *batch = 32;   return;
      case Workload::Train405B:  *chips = 16;   *batch = 32;   return;
      case Workload::Prefill8B:  *chips = 1;    *batch = 4;    return;
      case Workload::Prefill13B: *chips = 1;    *batch = 4;    return;
      case Workload::Prefill70B: *chips = 4096; *batch = 8192; return;
      case Workload::Prefill405B:*chips = 256;  *batch = 64;   return;
      case Workload::Decode8B:   *chips = 1;    *batch = 8;    return;
      case Workload::Decode13B:  *chips = 1;    *batch = 4;    return;
      case Workload::Decode70B:  *chips = 128;  *batch = 4096; return;
      case Workload::Decode405B: *chips = 64;   *batch = 2048; return;
      case Workload::DlrmS:      *chips = 8;    *batch = 4096; return;
      case Workload::DlrmM:      *chips = 8;    *batch = 4096; return;
      case Workload::DlrmL:      *chips = 8;    *batch = 4096; return;
      case Workload::DiTXL:      *chips = 64;   *batch = 8192; return;
      case Workload::Gligen:     *chips = 64;   *batch = 256;  return;
    }
    throw LogicError("unknown workload");
}

}  // namespace

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> all = {
        Workload::Train8B,    Workload::Train13B,  Workload::Train70B,
        Workload::Train405B,  Workload::Prefill8B, Workload::Prefill13B,
        Workload::Prefill70B, Workload::Prefill405B, Workload::Decode8B,
        Workload::Decode13B,  Workload::Decode70B, Workload::Decode405B,
        Workload::DlrmS,      Workload::DlrmM,     Workload::DlrmL,
        Workload::DiTXL,      Workload::Gligen,
    };
    return all;
}

std::vector<Workload>
workloadsOf(WorkloadFamily family)
{
    std::vector<Workload> out;
    for (auto w : allWorkloads()) {
        if (familyOf(w) == family)
            out.push_back(w);
    }
    return out;
}

WorkloadFamily
familyOf(Workload w)
{
    switch (w) {
      case Workload::Train8B:
      case Workload::Train13B:
      case Workload::Train70B:
      case Workload::Train405B:
        return WorkloadFamily::LlmTraining;
      case Workload::Prefill8B:
      case Workload::Prefill13B:
      case Workload::Prefill70B:
      case Workload::Prefill405B:
        return WorkloadFamily::LlmPrefill;
      case Workload::Decode8B:
      case Workload::Decode13B:
      case Workload::Decode70B:
      case Workload::Decode405B:
        return WorkloadFamily::LlmDecode;
      case Workload::DlrmS:
      case Workload::DlrmM:
      case Workload::DlrmL:
        return WorkloadFamily::DlrmInference;
      case Workload::DiTXL:
      case Workload::Gligen:
        return WorkloadFamily::StableDiffusion;
    }
    throw LogicError("unknown workload");
}

std::string
workloadName(Workload w)
{
    switch (familyOf(w)) {
      case WorkloadFamily::LlmTraining:
        return llamaConfig(llamaOf(w)).name + "-Train";
      case WorkloadFamily::LlmPrefill:
        return llamaConfig(llamaOf(w)).name + "-Prefill";
      case WorkloadFamily::LlmDecode:
        return llamaConfig(llamaOf(w)).name + "-Decode";
      case WorkloadFamily::DlrmInference:
        return dlrmConfig(dlrmOf(w)).name;
      case WorkloadFamily::StableDiffusion:
        return diffusionModelName(w == Workload::DiTXL
                                      ? DiffusionModel::DiTXL
                                      : DiffusionModel::GLIGEN);
    }
    throw LogicError("unknown workload");
}

std::string
workloadFamilyName(WorkloadFamily family)
{
    switch (family) {
      case WorkloadFamily::LlmTraining:
        return "LLM Training";
      case WorkloadFamily::LlmPrefill:
        return "LLM Prefill";
      case WorkloadFamily::LlmDecode:
        return "LLM Decode";
      case WorkloadFamily::DlrmInference:
        return "DLRM Inference";
      case WorkloadFamily::StableDiffusion:
        return "Stable Diffusion";
    }
    throw LogicError("unknown family");
}

WorkUnit
workUnitOf(Workload w)
{
    return scenarioWorkUnit(builtinSpec(w));
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

const ScenarioSpec &
builtinSpec(Workload w)
{
    static const std::array<ScenarioSpec, 17> specs = [] {
        std::array<ScenarioSpec, 17> out;
        for (auto workload : allWorkloads()) {
            ScenarioSpec s;
            s.name = workloadName(workload);
            s.family = familyKeyOf(workload);
            s.model = modelKeyOf(workload);
            table4ChipsBatch(workload, &s.chips, &s.batch);
            validateScenario(s);
            out[static_cast<std::size_t>(workload)] = std::move(s);
        }
        return out;
    }();
    auto index = static_cast<std::size_t>(w);
    REGATE_CHECK(index < specs.size(), "unknown workload");
    return specs[index];
}

bool
builtinWorkloadOf(const ScenarioSpec &spec, Workload *out)
{
    // An explicit parallelism split, extra keys, or gating overrides
    // always mean a custom scenario, even if the spec happens to
    // reproduce a paper configuration: the overrides are part of its
    // identity and its grid rows must keep the scenario's own name.
    if (spec.parSet || !spec.extra.empty() || !spec.gating.empty())
        return false;
    for (auto w : allWorkloads()) {
        const auto &b = builtinSpec(w);
        if (spec.family == b.family && spec.model == b.model &&
            spec.batch == b.batch && spec.chips == b.chips &&
            spec.seqLen == b.seqLen && spec.outLen == b.outLen &&
            spec.unit == b.unit) {
            *out = w;
            return true;
        }
    }
    return false;
}

RunSetup
table4Setup(Workload w)
{
    return scenarioSetup(builtinSpec(w));
}

double
modelStateBytes(Workload w)
{
    return scenarioModelStateBytes(builtinSpec(w));
}

RunSetup
defaultSetup(Workload w, arch::NpuGeneration gen)
{
    return defaultScenarioSetup(builtinSpec(w), gen);
}

graph::OperatorGraph
buildGraph(Workload w, const RunSetup &setup)
{
    return buildScenarioGraph(builtinSpec(w), setup);
}

double
unitsPerRun(Workload w, const RunSetup &setup)
{
    return scenarioUnitsPerRun(builtinSpec(w), setup);
}

}  // namespace models
}  // namespace regate
