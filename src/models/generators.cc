/**
 * @file
 * The workload-family table: the paper's llama-train/prefill/decode,
 * dlrm, and diffusion families (whose 17 Table-1 instances are the
 * canonical built-in specs), and an MoE inference family that exists
 * only as a spec family — it shows a new family needs a row here and
 * a spec file, never a figure-binary edit.
 *
 * A family's `model` values are the keys of its model cards
 * (llamaConfigs, dlrmConfigs, kDiffusionCards), which modelCard looks
 * a spec up in and keysDoc lists for --list-generators.
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

/** Reject an unknown model through @p card, then undeclared extras. */
template <auto card>
void
validateCard(const ScenarioSpec &spec)
{
    card(spec);
    checkExtras(spec);
}

/** The keys of @p rows as "a | b | c". */
template <typename Rows>
std::string
keysDoc(const Rows &rows)
{
    std::string out;
    for (const auto &row : rows)
        (out += out.empty() ? "" : " | ") += row.key;
    return out;
}

/** The row of @p rows keyed by the spec's model; otherwise a
 *  ConfigError that names @p family and lists the keys. */
template <typename Rows>
const auto &
modelCard(const Rows &rows, const char *family, const ScenarioSpec &spec)
{
    for (const auto &row : rows)
        if (row.key == spec.model)
            return row;
    std::string want;
    for (std::size_t i = 0, n = std::size(rows); i < n; ++i) {
        if (i > 0)
            want += i + 1 < n ? ", " : n > 2 ? ", or " : " or ";
        want += rows[i].key;
    }
    throw ConfigError("scenario '" + spec.name + "': unknown " + family +
                      " model '" + spec.model + "' (want " + want +
                      ")");
}

// ---- Llama train / prefill / decode, and MoE on a llama base ----

const LlamaConfig &
llamaCard(const ScenarioSpec &spec)
{
    return modelCard(llamaConfigs(), "llama", spec);
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
    validateCard<llamaCard>(spec);
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
    return modelCard(dlrmConfigs(), "dlrm", spec);
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

/** The diffusion models: a spec `model` value and its builder each. */
constexpr struct DiffusionCard
{
    const char *key;
    graph::OperatorGraph (*build)(std::int64_t, const Parallelism &);
} kDiffusionCards[] = {
    {"dit-xl", ditInference},
    {"gligen", gligenInference},
};

const DiffusionCard &
diffusionCard(const ScenarioSpec &spec)
{
    return modelCard(kDiffusionCards, "diffusion", spec);
}

double
diffusionStateBytes(const ScenarioSpec &)
{
    return 3e9;  // ~1.5B params in bf16 plus activations.
}

graph::OperatorGraph
buildDiffusion(const ScenarioSpec &spec, const RunSetup &setup)
{
    return diffusionCard(spec).build(setup.batch, setup.par);
}

}  // namespace

const std::vector<FamilyRow> &
familyTable()
{
    static const std::string llama = keysDoc(llamaConfigs());
    static const std::vector<FamilyRow> table = {
        {"diffusion", "Stable Diffusion", keysDoc(kDiffusionCards),
         WorkUnit::Image, 0, 0, false, {}, validateCard<diffusionCard>,
         diffusionStateBytes, buildDiffusion},
        {"dlrm", "DLRM Inference", keysDoc(dlrmConfigs()),
         WorkUnit::Request, 0, 0, false, {}, validateCard<dlrmCard>,
         dlrmStateBytes, buildDlrm},
        {"llama-decode", "LLM Decode", llama, WorkUnit::Token,
         kPrefillSeqLen, kDecodeOutLen, true, {},
         validateCard<llamaCard>, decodeStateBytes, buildDecode},
        {"llama-prefill", "LLM Prefill", llama, WorkUnit::Token,
         kPrefillSeqLen, 0, true, {}, validateCard<llamaCard>,
         prefillStateBytes, buildPrefill},
        {"llama-train", "LLM Training", llama, WorkUnit::Iteration,
         kPrefillSeqLen, 0, true, {}, validateCard<llamaCard>,
         trainStateBytes, buildTrain},
        {"moe", "MoE Inference", llama + " (dense base)",
         WorkUnit::Token, kPrefillSeqLen, 0, true,
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

KeyRef
resolveKey(std::string_view key, const FamilyRow *row)
{
    auto find = [&](KeyRef::Kind kind, const auto &rows) {
        std::size_t i = 0;
        for (const auto &r : rows) {
            if (r.key == key)
                return KeyRef{kind, static_cast<std::uint8_t>(i)};
            ++i;
        }
        return KeyRef{};
    };
    KeyRef ref = find(KeyRef::Kind::Shared, kSharedKeys);
    if (ref.kind == KeyRef::Kind::Unknown)
        ref = find(KeyRef::Kind::Gating, kGatingKeys);
    if (ref.kind == KeyRef::Kind::Unknown && row)
        ref = find(KeyRef::Kind::Extra, row->extras);
    return ref;
}

std::vector<SpecKey>
specKeys(const FamilyRow &row)
{
    std::vector<SpecKey> keys;
    for (const auto &shared : kSharedKeys) {
        std::string doc = shared.doc;
        if (shared.key == "model")
            doc += row.models;
        else if (shared.key == "unit")
            doc += keysDoc(kWorkUnits);
        keys.push_back({std::string(shared.key), std::move(doc)});
    }
    for (const auto &gating : kGatingKeys)
        keys.push_back({std::string(gating.key), gating.doc});
    keys.insert(keys.end(), row.extras.begin(), row.extras.end());
    return keys;
}

}  // namespace models
}  // namespace regate
