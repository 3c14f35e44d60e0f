#include "models/diffusion.h"

#include "common/error.h"

namespace regate {
namespace models {

using graph::Block;
using graph::Operator;
using graph::OperatorGraph;
using graph::OpKind;

namespace {

constexpr int kBf16 = 2;
constexpr double kOpsSoftmax = 6;
constexpr double kOpsNorm = 8;
constexpr double kOpsGelu = 4;

/** Validate @p op and move it onto @p ops. */
void
add(std::vector<Operator> &ops, Operator &&op)
{
    op.validate();
    ops.push_back(std::move(op));
}

/** Attention over @p tokens tokens with @p heads heads of @p hd dims. */
void
emitAttention(std::vector<Operator> &ops, const std::string &prefix,
              std::int64_t b, std::int64_t tokens, std::int64_t heads,
              std::int64_t hd)
{
    std::int64_t model_dim = heads * hd;
    double act = static_cast<double>(b) * tokens * model_dim * kBf16;

    Operator norm;
    norm.kind = OpKind::Normalization;
    norm.name = prefix + ".norm";
    norm.vuOps = static_cast<double>(b) * tokens * model_dim * kOpsNorm;
    norm.hbmReadBytes = act;
    norm.hbmWriteBytes = act;
    add(ops, std::move(norm));

    Operator qkv;
    qkv.kind = OpKind::MatMul;
    qkv.name = prefix + ".qkv";
    qkv.m = b * tokens;
    qkv.k = model_dim;
    qkv.n = 3 * model_dim;
    qkv.hbmReadBytes =
        act + static_cast<double>(qkv.k) * qkv.n * kBf16;
    add(ops, std::move(qkv));

    Operator scores;
    scores.kind = OpKind::MatMul;
    scores.name = prefix + ".scores";
    scores.batch = b * heads;
    scores.m = tokens;
    scores.k = hd;   // Head size < SA width -> spatial underutil.
    scores.n = tokens;
    add(ops, std::move(scores));

    Operator soft;
    soft.kind = OpKind::Softmax;
    soft.name = prefix + ".softmax";
    soft.vuOps = static_cast<double>(b) * heads * tokens * tokens *
                 kOpsSoftmax;
    add(ops, std::move(soft));

    Operator value;
    value.kind = OpKind::MatMul;
    value.name = prefix + ".value";
    value.batch = b * heads;
    value.m = tokens;
    value.k = tokens;
    value.n = hd;    // Small N -> column gating opportunity.
    add(ops, std::move(value));

    Operator out;
    out.kind = OpKind::MatMul;
    out.name = prefix + ".out";
    out.m = b * tokens;
    out.k = model_dim;
    out.n = model_dim;
    out.hbmReadBytes = static_cast<double>(out.k) * out.n * kBf16;
    out.hbmWriteBytes = act;
    add(ops, std::move(out));
}

/** Transformer MLP with expansion factor 4 and GELU. */
void
emitMlp(std::vector<Operator> &ops, const std::string &prefix,
        std::int64_t b, std::int64_t tokens, std::int64_t dim)
{
    double act = static_cast<double>(b) * tokens * dim * kBf16;

    Operator up;
    up.kind = OpKind::MatMul;
    up.name = prefix + ".mlp.up";
    up.m = b * tokens;
    up.k = dim;
    up.n = 4 * dim;
    up.hbmReadBytes = act + static_cast<double>(up.k) * up.n * kBf16;
    add(ops, std::move(up));

    Operator gelu;
    gelu.kind = OpKind::Elementwise;
    gelu.name = prefix + ".mlp.gelu";
    gelu.vuOps = static_cast<double>(b) * tokens * 4 * dim * kOpsGelu;
    add(ops, std::move(gelu));

    Operator down;
    down.kind = OpKind::MatMul;
    down.name = prefix + ".mlp.down";
    down.m = b * tokens;
    down.k = 4 * dim;
    down.n = dim;
    down.hbmReadBytes = static_cast<double>(down.k) * down.n * kBf16;
    down.hbmWriteBytes = act;
    add(ops, std::move(down));
}

/** 3x3 conv lowered to im2col GEMM. */
void
emitConv(std::vector<Operator> &ops, const std::string &prefix,
         std::int64_t b, std::int64_t res, std::int64_t cin,
         std::int64_t cout)
{
    Operator conv;
    conv.kind = OpKind::MatMul;
    conv.name = prefix + ".conv3x3";
    conv.m = b * res * res;
    conv.k = cin * 9;
    conv.n = cout;
    conv.hbmReadBytes =
        static_cast<double>(conv.k) * conv.n * kBf16 +
        static_cast<double>(b) * res * res * cin * kBf16;
    conv.hbmWriteBytes = static_cast<double>(b) * res * res * cout *
                         kBf16;
    add(ops, std::move(conv));

    Operator act;
    act.kind = OpKind::Elementwise;
    act.name = prefix + ".silu";
    act.vuOps = static_cast<double>(b) * res * res * cout * kOpsGelu;
    add(ops, std::move(act));
}

std::int64_t
localBatch(std::int64_t batch, const Parallelism &par)
{
    par.validate();
    REGATE_CHECK(par.tp == 1 && par.pp == 1,
                 "diffusion models deploy data-parallel only");
    return std::max<std::int64_t>(1, batch / par.dp);
}

}  // namespace

graph::OperatorGraph
ditInference(std::int64_t batch, const Parallelism &par)
{
    std::int64_t b = localBatch(batch, par);
    // DiT-XL/2 @ 512x512: 64x64 latent, patch 2 -> 32x32 = 1024
    // tokens; 28 blocks, hidden 1152, 16 heads of size 72.
    const std::int64_t tokens = 1024;
    const std::int64_t heads = 16;
    const std::int64_t hd = 72;
    const int blocks = 28;

    OperatorGraph g;
    g.name = "DiT-XL-inference";
    Block blk;
    blk.name = "dit-block";
    blk.repeat =
        static_cast<std::uint64_t>(blocks) * kDiffusionSteps;
    emitAttention(blk.ops, "attn", b, tokens, heads, hd);
    emitMlp(blk.ops, "block", b, tokens, heads * hd);
    g.blocks.push_back(std::move(blk));
    g.validate();
    return g;
}

graph::OperatorGraph
gligenInference(std::int64_t batch, const Parallelism &par)
{
    std::int64_t b = localBatch(batch, par);

    OperatorGraph g;
    g.name = "GLIGEN-inference";

    // SD-1.5 U-Net levels at 512x512 (64x64 latent): resolution,
    // channels, attention head size; deeper levels shrink both the
    // image and the head size (§3). Each level appears on the down
    // and up paths; the mid block runs once.
    struct Level
    {
        std::int64_t res, ch, heads, hd;
        int visits;
    };
    const Level levels[] = {
        {64, 320, 8, 40, 2},
        {32, 640, 8, 80, 2},
        {16, 1280, 8, 160, 2},
        {8, 1280, 8, 160, 1},
    };

    for (const auto &lv : levels) {
        Block blk;
        blk.name = "unet-res" + std::to_string(lv.res);
        blk.repeat = static_cast<std::uint64_t>(lv.visits) * 2 *
                     kDiffusionSteps;  // 2 resnet+attn units per visit.
        emitConv(blk.ops, blk.name, b, lv.res, lv.ch, lv.ch);
        std::int64_t tokens = lv.res * lv.res;
        emitAttention(blk.ops, blk.name + ".self", b, tokens, lv.heads,
                      lv.hd);
        // GLIGEN's gated attention adds a second attention unit.
        emitAttention(blk.ops, blk.name + ".gated", b, tokens, lv.heads,
                      lv.hd);
        emitMlp(blk.ops, blk.name, b, tokens, lv.heads * lv.hd);
        g.blocks.push_back(std::move(blk));
    }
    g.validate();
    return g;
}

}  // namespace models
}  // namespace regate
