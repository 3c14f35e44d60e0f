/**
 * @file
 * The workload-family table: the paper's llama-train/prefill/decode,
 * dlrm, and diffusion families (whose 17 Table-1 instances are the
 * canonical built-in specs), and an MoE inference family that exists
 * only as a spec family — it shows a new family needs a row here and
 * a spec file, never a figure-binary edit.
 */

#include <algorithm>
#include <iterator>
#include <string_view>
#include <utility>

#include "common/error.h"
#include "models/diffusion.h"
#include "models/dlrm.h"
#include "models/llama.h"
#include "models/registry.h"

namespace regate {
namespace models {

namespace {

/** Reject extras the spec's family does not declare
 *  (parser-independent safety for programmatically built specs). */
void
checkExtras(const ScenarioSpec &spec)
{
    const auto &allowed = familyRow(spec.family).extras;
    for (const auto &[key, value] : spec.extra) {
        (void)value;
        REGATE_CHECK(std::any_of(allowed.begin(), allowed.end(),
                                 [&](const SpecKey &k) {
                                     return k.key == key;
                                 }),
                     "scenario '", spec.name, "': family '",
                     spec.family, "' does not accept key '", key, "'");
    }
}

// ---- Llama train / prefill / decode, and MoE on a llama base ----

const LlamaConfig &
llamaCard(const ScenarioSpec &spec)
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

void
validateLlama(const ScenarioSpec &spec)
{
    llamaCard(spec);
    checkExtras(spec);
}

double
trainStateBytes(const ScenarioSpec &spec)
{
    // bf16 weights + dp-sharded (ZeRO) optimizer state; Table 4 fits
    // 405B training on 16 NPU-D chips, implying ~2.5 B/param resident
    // per chip.
    return llamaCard(spec).params() * 2.5;
}

double
prefillStateBytes(const ScenarioSpec &spec)
{
    return llamaCard(spec).weightBytes();
}

double
decodeStateBytes(const ScenarioSpec &spec)
{
    const auto &cfg = llamaCard(spec);
    // Summed as doubles: the parser bounds neither length.
    double kv = cfg.kvBytesPerToken() *
                (static_cast<double>(spec.seqLen) +
                 static_cast<double>(spec.outLen)) *
                static_cast<double>(spec.batch);
    return cfg.weightBytes() + kv;
}

graph::OperatorGraph
buildTrain(const ScenarioSpec &spec, const RunSetup &setup)
{
    return llamaTraining(llamaCard(spec), setup.batch, spec.seqLen,
                         setup.par);
}

graph::OperatorGraph
buildPrefill(const ScenarioSpec &spec, const RunSetup &setup)
{
    return llamaPrefill(llamaCard(spec), setup.batch, spec.seqLen,
                        setup.par);
}

graph::OperatorGraph
buildDecode(const ScenarioSpec &spec, const RunSetup &setup)
{
    return llamaDecode(llamaCard(spec), setup.batch, spec.seqLen,
                       spec.outLen, setup.par);
}

/*
 * Sparse mixture-of-experts inference on a llama-architecture base:
 * compute routes each token through top_k expert FFNs (the prefill
 * graph with a top_k-wide FFN), while every expert's weights stay
 * HBM-resident (the capacity model scales the FFN by `experts`).
 */

void
validateMoe(const ScenarioSpec &spec)
{
    validateLlama(spec);
    std::int64_t experts = spec.extraOr("experts", 0);
    REGATE_CHECK(experts >= 2, "scenario '", spec.name,
                 "': moe requires experts >= 2 (got ", experts, ")");
    std::int64_t top_k = spec.extraOr("top_k", 2);
    REGATE_CHECK(top_k >= 1 && top_k <= experts, "scenario '",
                 spec.name, "': top_k must be in [1, experts] (got ",
                 top_k, " of ", experts, ")");
}

double
moeStateBytes(const ScenarioSpec &spec)
{
    // All experts resident: the dense card with its FFN widened by the
    // expert count.
    LlamaConfig all = llamaCard(spec);
    all.ffnHidden *= spec.extraOr("experts", 2);
    return all.weightBytes();
}

graph::OperatorGraph
buildMoe(const ScenarioSpec &spec, const RunSetup &setup)
{
    // Active compute: top_k expert FFNs per token.
    LlamaConfig active = llamaCard(spec);
    active.ffnHidden *= spec.extraOr("top_k", 2);
    return llamaPrefill(active, setup.batch, spec.seqLen, setup.par);
}

// ---- DLRM inference ----

const DlrmConfig &
dlrmCard(const ScenarioSpec &spec)
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

void
validateDlrm(const ScenarioSpec &spec)
{
    dlrmCard(spec);
    checkExtras(spec);
}

double
dlrmStateBytes(const ScenarioSpec &spec)
{
    return dlrmCard(spec).tableBytes;
}

graph::OperatorGraph
buildDlrm(const ScenarioSpec &spec, const RunSetup &setup)
{
    return dlrmInference(dlrmCard(spec), setup.batch, setup.chips);
}

// ---- Stable diffusion ----

DiffusionModel
diffusionModel(const ScenarioSpec &spec)
{
    if (spec.model == "dit-xl")
        return DiffusionModel::DiTXL;
    if (spec.model == "gligen")
        return DiffusionModel::GLIGEN;
    throw ConfigError("scenario '" + spec.name +
                      "': unknown diffusion model '" + spec.model +
                      "' (want dit-xl or gligen)");
}

void
validateDiffusion(const ScenarioSpec &spec)
{
    diffusionModel(spec);
    checkExtras(spec);
}

double
diffusionStateBytes(const ScenarioSpec &)
{
    return 3e9;  // ~1.5B params in bf16 plus activations.
}

graph::OperatorGraph
buildDiffusion(const ScenarioSpec &spec, const RunSetup &setup)
{
    return diffusionInference(diffusionModel(spec), setup.batch,
                              setup.par);
}

constexpr const char *kLlamaModels = "8b | 13b | 70b | 405b";

/** The keys every family accepts, in documented order. */
constexpr struct
{
    const char *key;
    const char *doc;  ///< `model`'s doc ends with the row's models.
} kSharedKeys[] = {
    {"family", "workload family (this generator)"},
    {"model", "model size: "},
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

}  // namespace

const std::vector<FamilyRow> &
familyTable()
{
    static const std::vector<FamilyRow> table = {
        {"diffusion", "Stable Diffusion", "dit-xl | gligen",
         WorkUnit::Image, 0, 0, false, {}, validateDiffusion,
         diffusionStateBytes, buildDiffusion},
        {"dlrm", "DLRM Inference", "s | m | l", WorkUnit::Request, 0,
         0, false, {}, validateDlrm, dlrmStateBytes, buildDlrm},
        {"llama-decode", "LLM Decode", kLlamaModels, WorkUnit::Token,
         kPrefillSeqLen, kDecodeOutLen, true, {}, validateLlama,
         decodeStateBytes, buildDecode},
        {"llama-prefill", "LLM Prefill", kLlamaModels, WorkUnit::Token,
         kPrefillSeqLen, 0, true, {}, validateLlama, prefillStateBytes,
         buildPrefill},
        {"llama-train", "LLM Training", kLlamaModels,
         WorkUnit::Iteration, kPrefillSeqLen, 0, true, {},
         validateLlama, trainStateBytes, buildTrain},
        {"moe", "MoE Inference",
         std::string(kLlamaModels) + " (dense base)", WorkUnit::Token,
         kPrefillSeqLen, 0, true,
         {{"experts", "expert FFNs per layer (required, >= 2)"},
          {"top_k", "experts active per token (default 2)", 2}},
         validateMoe, moeStateBytes, buildMoe},
    };
    return table;
}

const FamilyRow *
findFamily(std::string_view family)
{
    const auto &table = familyTable();
    auto it = std::find_if(table.begin(), table.end(),
                           [&](const FamilyRow &row) {
                               return row.key == family;
                           });
    return it == table.end() ? nullptr : &*it;
}

std::string
unknownFamilyMessage(std::string_view family)
{
    std::string known;
    for (const auto &row : familyTable())
        known += known.empty() ? row.key : ", " + row.key;
    return "unknown workload family '" + std::string(family) +
           "' (registered: " + known + ")";
}

const FamilyRow &
familyRow(std::string_view family)
{
    const auto *row = findFamily(family);
    if (!row)
        throw ConfigError(unknownFamilyMessage(family));
    return *row;
}

bool
acceptsKey(const FamilyRow &row, std::string_view key)
{
    auto named = [&](const auto &k) { return k.key == key; };
    return std::any_of(std::begin(kSharedKeys), std::end(kSharedKeys),
                       named) ||
           std::any_of(row.extras.begin(), row.extras.end(), named);
}

std::vector<SpecKey>
specKeys(const FamilyRow &row)
{
    std::vector<SpecKey> keys;
    for (const auto &shared : kSharedKeys) {
        std::string doc = shared.doc;
        if (shared.key == std::string_view("model"))
            doc += row.models;
        keys.push_back({shared.key, std::move(doc)});
    }
    keys.insert(keys.end(), row.extras.begin(), row.extras.end());
    return keys;
}

}  // namespace models
}  // namespace regate
