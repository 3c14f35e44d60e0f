/**
 * @file
 * The built-in workload generators behind GeneratorRegistry: the
 * paper's llama-train/prefill/decode, dlrm, and diffusion families
 * (whose 17 Table-1 instances are the canonical built-in specs), and
 * an MoE inference family as the first registry-only scenario — it
 * exists to prove a new family needs a generator in the library and
 * a spec file, never a figure-binary edit.
 */

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "models/diffusion.h"
#include "models/dlrm.h"
#include "models/llama.h"
#include "models/registry.h"

namespace regate {
namespace models {

namespace {

/** The spec keys every family understands. */
std::vector<SpecKeyInfo>
commonSpecKeys(const std::string &models)
{
    return {
        {"family", "workload family (this generator)"},
        {"model", "model size: " + models},
        {"batch", "global batch size (required; int list/range ok)"},
        {"chips", "pod size (required; int list/range ok)"},
        {"seq_len", "input sequence length (family default if unset)"},
        {"out_len", "generated length (family default if unset)"},
        {"dp", "data-parallel replicas (with tp/pp: chips = dp*tp*pp)"},
        {"tp", "tensor-parallel shards"},
        {"pp", "pipeline-parallel stages"},
        {"unit", "work unit: iteration | token | request | image"},
        {"logic_off", "gated-logic leakage ratio override"},
        {"sram_sleep", "SRAM sleep leakage ratio override"},
        {"sram_off", "SRAM off leakage ratio override"},
        {"delay_scale", "gating delay/BET scale override"},
    };
}

/** Fig.2-style normalization shared by every family: the unit the
 *  spec asked for, over the setup's batch. */
double
defaultUnitsPerRun(const ScenarioSpec &spec, const RunSetup &setup)
{
    switch (scenarioWorkUnit(spec)) {
      case WorkUnit::Iteration:
        return 1.0;
      case WorkUnit::Token:
        return static_cast<double>(setup.batch) *
               static_cast<double>(spec.outLen > 0 ? spec.outLen
                                                   : spec.seqLen);
      case WorkUnit::Request:
      case WorkUnit::Image:
        return static_cast<double>(setup.batch);
    }
    throw LogicError("unknown unit");
}

/** Anchor setup shared by every family: explicit split if the spec
 *  set one, else the family's heuristic via @p heuristic. */
template <typename HeuristicFn>
RunSetup
anchorFrom(const ScenarioSpec &spec, HeuristicFn &&heuristic)
{
    RunSetup s;
    s.chips = spec.chips;
    s.batch = spec.batch;
    s.par = spec.parSet ? spec.par : heuristic();
    return s;
}

/** Reject extras outside @p allowed (parser-independent safety for
 *  programmatically built specs). */
void
checkExtras(const ScenarioSpec &spec,
            const std::vector<std::string> &allowed)
{
    for (const auto &[key, value] : spec.extra) {
        (void)value;
        REGATE_CHECK(std::find(allowed.begin(), allowed.end(), key) !=
                         allowed.end(),
                     "scenario '", spec.name, "': family '",
                     spec.family, "' does not accept key '", key, "'");
    }
}

/** The llama tp-first split with the Table-4 dp<=batch fixup. */
Parallelism
llamaAnchorSplit(int chips, std::int64_t batch)
{
    Parallelism par = splitChips(chips, 8);
    // Keep dp <= batch so every replica has work.
    while (par.dp > batch && par.tp < chips) {
        par.tp *= 2;
        par.dp = chips / par.tp;
    }
    return par;
}

// ---- Llama train / prefill / decode ----

class LlamaGeneratorBase : public WorkloadGenerator
{
  public:
    std::vector<SpecKeyInfo> specKeys() const override
    {
        return commonSpecKeys("8b | 13b | 70b | 405b");
    }

    void validate(const ScenarioSpec &spec) const override
    {
        cardOf(spec);
        checkExtras(spec, {});
    }

    void fillDefaults(ScenarioSpec &spec) const override
    {
        if (spec.seqLen == 0)
            spec.seqLen = kPrefillSeqLen;
        if (decode() && spec.outLen == 0)
            spec.outLen = kDecodeOutLen;
        if (spec.unit.empty())
            spec.unit = workUnitKey(defaultUnit());
    }

    WorkUnit workUnit(const ScenarioSpec &spec) const override
    {
        return scenarioWorkUnitOf(spec);
    }

    RunSetup anchorSetup(const ScenarioSpec &spec) const override
    {
        return anchorFrom(spec, [&] {
            return llamaAnchorSplit(spec.chips, spec.batch);
        });
    }

    Parallelism scaleSplit(const ScenarioSpec &spec,
                           int chips) const override
    {
        (void)spec;
        return splitChips(chips, 8);
    }

    double unitsPerRun(const ScenarioSpec &spec,
                       const RunSetup &setup) const override
    {
        return defaultUnitsPerRun(spec, setup);
    }

  protected:
    virtual bool decode() const { return false; }
    virtual WorkUnit defaultUnit() const = 0;

    static const LlamaConfig &cardOf(const ScenarioSpec &spec)
    {
        if (spec.model == "8b")
            return llamaConfig(LlamaModel::L8B);
        if (spec.model == "13b")
            return llamaConfig(LlamaModel::L13B);
        if (spec.model == "70b")
            return llamaConfig(LlamaModel::L70B);
        if (spec.model == "405b")
            return llamaConfig(LlamaModel::L405B);
        throw ConfigError("scenario '" + spec.name +
                          "': unknown llama model '" + spec.model +
                          "' (want 8b, 13b, 70b, or 405b)");
    }

    static WorkUnit scenarioWorkUnitOf(const ScenarioSpec &spec)
    {
        WorkUnit unit;
        REGATE_CHECK(parseWorkUnitKey(spec.unit, &unit), "scenario '",
                     spec.name, "': unknown unit '", spec.unit, "'");
        return unit;
    }
};

class LlamaTrainGenerator : public LlamaGeneratorBase
{
  public:
    std::string family() const override { return "llama-train"; }
    std::string familyLabel() const override { return "LLM Training"; }

    double modelStateBytes(const ScenarioSpec &spec) const override
    {
        // bf16 weights + dp-sharded (ZeRO) optimizer state; Table 4
        // fits 405B training on 16 NPU-D chips, implying ~2.5 B/param
        // resident per chip.
        return cardOf(spec).params() * 2.5;
    }

    graph::OperatorGraph build(const ScenarioSpec &spec,
                               const RunSetup &setup) const override
    {
        return llamaTraining(cardOf(spec), setup.batch, spec.seqLen,
                             setup.par);
    }

  protected:
    WorkUnit defaultUnit() const override { return WorkUnit::Iteration; }
};

class LlamaPrefillGenerator : public LlamaGeneratorBase
{
  public:
    std::string family() const override { return "llama-prefill"; }
    std::string familyLabel() const override { return "LLM Prefill"; }

    double modelStateBytes(const ScenarioSpec &spec) const override
    {
        return cardOf(spec).weightBytes();
    }

    graph::OperatorGraph build(const ScenarioSpec &spec,
                               const RunSetup &setup) const override
    {
        return llamaPrefill(cardOf(spec), setup.batch, spec.seqLen,
                            setup.par);
    }

  protected:
    WorkUnit defaultUnit() const override { return WorkUnit::Token; }
};

class LlamaDecodeGenerator : public LlamaGeneratorBase
{
  public:
    std::string family() const override { return "llama-decode"; }
    std::string familyLabel() const override { return "LLM Decode"; }

    double modelStateBytes(const ScenarioSpec &spec) const override
    {
        const auto &cfg = cardOf(spec);
        double kv = cfg.kvBytesPerToken() *
                    static_cast<double>(spec.seqLen + spec.outLen) *
                    static_cast<double>(spec.batch);
        return cfg.weightBytes() + kv;
    }

    graph::OperatorGraph build(const ScenarioSpec &spec,
                               const RunSetup &setup) const override
    {
        return llamaDecode(cardOf(spec), setup.batch, spec.seqLen,
                           spec.outLen, setup.par);
    }

  protected:
    bool decode() const override { return true; }
    WorkUnit defaultUnit() const override { return WorkUnit::Token; }
};

// ---- DLRM inference ----

class DlrmGenerator : public WorkloadGenerator
{
  public:
    std::string family() const override { return "dlrm"; }
    std::string familyLabel() const override { return "DLRM Inference"; }

    std::vector<SpecKeyInfo> specKeys() const override
    {
        return commonSpecKeys("s | m | l");
    }

    void validate(const ScenarioSpec &spec) const override
    {
        cardOf(spec);
        checkExtras(spec, {});
    }

    void fillDefaults(ScenarioSpec &spec) const override
    {
        if (spec.unit.empty())
            spec.unit = workUnitKey(WorkUnit::Request);
    }

    WorkUnit workUnit(const ScenarioSpec &spec) const override
    {
        WorkUnit unit;
        REGATE_CHECK(parseWorkUnitKey(spec.unit, &unit), "scenario '",
                     spec.name, "': unknown unit '", spec.unit, "'");
        return unit;
    }

    double modelStateBytes(const ScenarioSpec &spec) const override
    {
        return cardOf(spec).tableBytes;
    }

    RunSetup anchorSetup(const ScenarioSpec &spec) const override
    {
        return anchorFrom(spec, [&] {
            return Parallelism{spec.chips, 1, 1};
        });
    }

    Parallelism scaleSplit(const ScenarioSpec &spec,
                           int chips) const override
    {
        (void)spec;
        return {chips, 1, 1};
    }

    graph::OperatorGraph build(const ScenarioSpec &spec,
                               const RunSetup &setup) const override
    {
        return dlrmInference(cardOf(spec), setup.batch, setup.chips);
    }

    double unitsPerRun(const ScenarioSpec &spec,
                       const RunSetup &setup) const override
    {
        return defaultUnitsPerRun(spec, setup);
    }

  private:
    static const DlrmConfig &cardOf(const ScenarioSpec &spec)
    {
        if (spec.model == "s")
            return dlrmConfig(DlrmModel::S);
        if (spec.model == "m")
            return dlrmConfig(DlrmModel::M);
        if (spec.model == "l")
            return dlrmConfig(DlrmModel::L);
        throw ConfigError("scenario '" + spec.name +
                          "': unknown dlrm model '" + spec.model +
                          "' (want s, m, or l)");
    }
};

// ---- Stable diffusion ----

class DiffusionGenerator : public WorkloadGenerator
{
  public:
    std::string family() const override { return "diffusion"; }
    std::string familyLabel() const override
    {
        return "Stable Diffusion";
    }

    std::vector<SpecKeyInfo> specKeys() const override
    {
        return commonSpecKeys("dit-xl | gligen");
    }

    void validate(const ScenarioSpec &spec) const override
    {
        modelOf(spec);
        checkExtras(spec, {});
    }

    void fillDefaults(ScenarioSpec &spec) const override
    {
        if (spec.unit.empty())
            spec.unit = workUnitKey(WorkUnit::Image);
    }

    WorkUnit workUnit(const ScenarioSpec &spec) const override
    {
        WorkUnit unit;
        REGATE_CHECK(parseWorkUnitKey(spec.unit, &unit), "scenario '",
                     spec.name, "': unknown unit '", spec.unit, "'");
        return unit;
    }

    double modelStateBytes(const ScenarioSpec &spec) const override
    {
        (void)spec;
        return 3e9;  // ~1.5B params in bf16 plus activations.
    }

    RunSetup anchorSetup(const ScenarioSpec &spec) const override
    {
        return anchorFrom(spec, [&] {
            return Parallelism{spec.chips, 1, 1};
        });
    }

    Parallelism scaleSplit(const ScenarioSpec &spec,
                           int chips) const override
    {
        (void)spec;
        return {chips, 1, 1};
    }

    graph::OperatorGraph build(const ScenarioSpec &spec,
                               const RunSetup &setup) const override
    {
        return diffusionInference(modelOf(spec), setup.batch,
                                  setup.par);
    }

    double unitsPerRun(const ScenarioSpec &spec,
                       const RunSetup &setup) const override
    {
        return defaultUnitsPerRun(spec, setup);
    }

  private:
    static DiffusionModel modelOf(const ScenarioSpec &spec)
    {
        if (spec.model == "dit-xl")
            return DiffusionModel::DiTXL;
        if (spec.model == "gligen")
            return DiffusionModel::GLIGEN;
        throw ConfigError("scenario '" + spec.name +
                          "': unknown diffusion model '" + spec.model +
                          "' (want dit-xl or gligen)");
    }
};

// ---- MoE inference (registry-only; no paper workload row) ----

/**
 * Sparse mixture-of-experts inference on a llama-architecture base:
 * compute routes each token through top_k expert FFNs (the prefill
 * graph with a top_k-wide FFN), while every expert's weights stay
 * HBM-resident (the capacity model scales the FFN by `experts`).
 */
class MoeGenerator : public LlamaGeneratorBase
{
  public:
    std::string family() const override { return "moe"; }
    std::string familyLabel() const override { return "MoE Inference"; }

    std::vector<SpecKeyInfo> specKeys() const override
    {
        auto keys = commonSpecKeys("8b | 13b | 70b | 405b (dense base)");
        keys.push_back({"experts",
                        "expert FFNs per layer (required, >= 2)"});
        keys.push_back({"top_k",
                        "experts active per token (default 2)"});
        return keys;
    }

    void validate(const ScenarioSpec &spec) const override
    {
        cardOf(spec);
        checkExtras(spec, {"experts", "top_k"});
        std::int64_t experts = spec.extraOr("experts", 0);
        REGATE_CHECK(experts >= 2, "scenario '", spec.name,
                     "': moe requires experts >= 2 (got ", experts,
                     ")");
        std::int64_t top_k = spec.extraOr("top_k", 2);
        REGATE_CHECK(top_k >= 1 && top_k <= experts, "scenario '",
                     spec.name, "': top_k must be in [1, experts] "
                     "(got ", top_k, " of ", experts, ")");
    }

    void fillDefaults(ScenarioSpec &spec) const override
    {
        LlamaGeneratorBase::fillDefaults(spec);
        if (spec.extraOr("top_k", 0) == 0) {
            spec.extra.emplace_back("top_k", 2);
            std::sort(spec.extra.begin(), spec.extra.end());
        }
    }

    double modelStateBytes(const ScenarioSpec &spec) const override
    {
        // All experts resident: the dense card with its FFN widened
        // by the expert count.
        LlamaConfig all = cardOf(spec);
        all.ffnHidden *= spec.extraOr("experts", 2);
        return all.weightBytes();
    }

    graph::OperatorGraph build(const ScenarioSpec &spec,
                               const RunSetup &setup) const override
    {
        // Active compute: top_k expert FFNs per token.
        LlamaConfig active = cardOf(spec);
        active.ffnHidden *= spec.extraOr("top_k", 2);
        return llamaPrefill(active, setup.batch, spec.seqLen,
                            setup.par);
    }

  protected:
    WorkUnit defaultUnit() const override { return WorkUnit::Token; }
};

}  // namespace

std::string
workUnitKey(WorkUnit unit)
{
    switch (unit) {
      case WorkUnit::Iteration:
        return "iteration";
      case WorkUnit::Token:
        return "token";
      case WorkUnit::Request:
        return "request";
      case WorkUnit::Image:
        return "image";
    }
    throw LogicError("unknown unit");
}

bool
parseWorkUnitKey(const std::string &key, WorkUnit *out)
{
    if (key == "iteration")
        *out = WorkUnit::Iteration;
    else if (key == "token")
        *out = WorkUnit::Token;
    else if (key == "request")
        *out = WorkUnit::Request;
    else if (key == "image")
        *out = WorkUnit::Image;
    else
        return false;
    return true;
}

void
registerBuiltinGenerators(GeneratorRegistry &registry)
{
    registry.add(std::make_unique<LlamaTrainGenerator>());
    registry.add(std::make_unique<LlamaPrefillGenerator>());
    registry.add(std::make_unique<LlamaDecodeGenerator>());
    registry.add(std::make_unique<DlrmGenerator>());
    registry.add(std::make_unique<DiffusionGenerator>());
    registry.add(std::make_unique<MoeGenerator>());
}

}  // namespace models
}  // namespace regate
