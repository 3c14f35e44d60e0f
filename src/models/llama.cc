#include "models/llama.h"

#include <array>

#include "common/error.h"

namespace regate {
namespace models {

using graph::Block;
using graph::CollKind;
using graph::Operator;
using graph::OperatorGraph;
using graph::OpKind;

double
LlamaConfig::params() const
{
    double h = static_cast<double>(hidden);
    double qkv = h * (heads + 2.0 * kvHeads) * headDim;
    double out = static_cast<double>(heads) * headDim * h;
    double ffn = 3.0 * h * static_cast<double>(ffnHidden);
    double embed = 2.0 * static_cast<double>(vocab) * h;
    return layers * (qkv + out + ffn) + embed;
}

double
LlamaConfig::kvBytesPerToken() const
{
    return 2.0 * layers * kvHeads * headDim * 2.0;  // K+V, bf16.
}

std::span<const LlamaConfig>
llamaConfigs()
{
    static const std::array<LlamaConfig, 4> cards = {{
        // key, name, layers, hidden, heads, kvHeads, headDim, ffn, vocab
        {"8b", "Llama3-8B", 32, 4096, 32, 8, 128, 14336, 128256},
        {"13b", "Llama2-13B", 40, 5120, 40, 40, 128, 13824, 32000},
        {"70b", "Llama3-70B", 80, 8192, 64, 8, 128, 28672, 128256},
        {"405b", "Llama3.1-405B", 126, 16384, 128, 8, 128, 53248,
         128256},
    }};
    return cards;
}

namespace {

/** VU lane-op costs per element for the vector operators. */
constexpr double kOpsSoftmax = 6;   // max, sub, exp, sum, div.
constexpr double kOpsNorm = 8;      // mean/var or rms + scale.
constexpr double kOpsRotary = 6;    // sin/cos rotate.
constexpr double kOpsSwiGlu = 4;    // silu(gate) * up.
constexpr double kOpsOptimizer = 10;// Adam update per parameter.
constexpr int kBf16 = 2;

/**
 * Emit one transformer layer into @p ops. @p s is the number of
 * query positions per request (seq_len in prefill/training, 1 in
 * decode); @p ctx the number of attended key positions.
 * @p b_local is the per-replica batch.
 */
void
emitLayer(std::vector<Operator> &ops, const LlamaConfig &cfg,
          std::int64_t b_local, std::int64_t s, std::int64_t ctx,
          const Parallelism &par, bool decode)
{
    const std::int64_t t = par.tp;
    const std::int64_t h = cfg.hidden;
    const std::int64_t heads_l = std::max<std::int64_t>(1, cfg.heads / t);
    const std::int64_t kv_l = std::max<std::int64_t>(1, cfg.kvHeads / t);
    const std::int64_t hd = cfg.headDim;
    const std::int64_t ffn_l =
        std::max<std::int64_t>(1, cfg.ffnHidden / t);
    const double act_bytes =
        static_cast<double>(b_local) * s * h * kBf16;

    auto add = [&ops](Operator &op) {
        op.validate();
        ops.push_back(std::move(op));
    };

    // Pre-attention RMSNorm.
    {
        Operator op;
        op.kind = OpKind::Normalization;
        op.name = "rmsnorm.attn";
        op.vuOps = static_cast<double>(b_local) * s * h * kOpsNorm;
        op.hbmReadBytes = act_bytes;
        op.hbmWriteBytes = act_bytes;
        add(op);
    }
    // Fused QKV projection.
    {
        Operator op;
        op.kind = OpKind::MatMul;
        op.name = "qkv_proj";
        op.m = b_local * s;
        op.k = h;
        op.n = (heads_l + 2 * kv_l) * hd;
        op.hbmReadBytes =
            act_bytes + static_cast<double>(op.k) * op.n * kBf16;
        op.hbmWriteBytes = static_cast<double>(op.m) * op.n * kBf16;
        add(op);
    }
    // Rotary embedding on Q/K.
    {
        Operator op;
        op.kind = OpKind::Elementwise;
        op.name = "rotary";
        op.vuOps = static_cast<double>(b_local) * s *
                   (heads_l + kv_l) * hd * kOpsRotary;
        add(op);
    }
    // Attention scores: Q x K^T per head.
    {
        Operator op;
        op.kind = OpKind::MatMul;
        op.name = "attn.scores";
        op.batch = b_local * heads_l;
        op.m = s;
        op.k = hd;
        op.n = ctx;
        if (decode) {
            // KV-cache K read from HBM.
            op.hbmReadBytes = static_cast<double>(b_local) * kv_l * hd *
                              ctx * kBf16;
        }
        add(op);
    }
    // Softmax over scores (kept on chip; fuses with the GEMMs).
    {
        Operator op;
        op.kind = OpKind::Softmax;
        op.name = "attn.softmax";
        op.vuOps = static_cast<double>(b_local) * heads_l * s * ctx *
                   kOpsSoftmax;
        add(op);
    }
    // Attention value GEMM.
    {
        Operator op;
        op.kind = OpKind::MatMul;
        op.name = "attn.value";
        op.batch = b_local * heads_l;
        op.m = s;
        op.k = ctx;
        op.n = hd;
        if (decode) {
            op.hbmReadBytes = static_cast<double>(b_local) * kv_l * hd *
                              ctx * kBf16;
        }
        add(op);
    }
    // Output projection (row-parallel).
    {
        Operator op;
        op.kind = OpKind::MatMul;
        op.name = "attn.out_proj";
        op.m = b_local * s;
        op.k = heads_l * hd;
        op.n = h;
        op.hbmReadBytes = static_cast<double>(op.k) * op.n * kBf16;
        op.hbmWriteBytes = act_bytes;
        add(op);
    }
    // Tensor-parallel AllReduce of attention output.
    if (t > 1) {
        Operator op;
        op.kind = OpKind::Collective;
        op.name = "attn.allreduce";
        op.coll = CollKind::AllReduce;
        op.collBytes = act_bytes;
        add(op);
    }
    // Pre-FFN RMSNorm.
    {
        Operator op;
        op.kind = OpKind::Normalization;
        op.name = "rmsnorm.ffn";
        op.vuOps = static_cast<double>(b_local) * s * h * kOpsNorm;
        op.hbmReadBytes = act_bytes;
        op.hbmWriteBytes = act_bytes;
        add(op);
    }
    // FFN gate+up projection (fused GEMM).
    {
        Operator op;
        op.kind = OpKind::MatMul;
        op.name = "ffn.gate_up";
        op.m = b_local * s;
        op.k = h;
        op.n = 2 * ffn_l;
        op.hbmReadBytes =
            act_bytes + static_cast<double>(op.k) * op.n * kBf16;
        add(op);
    }
    // SwiGLU activation.
    {
        Operator op;
        op.kind = OpKind::Elementwise;
        op.name = "ffn.swiglu";
        op.vuOps =
            static_cast<double>(b_local) * s * ffn_l * kOpsSwiGlu;
        add(op);
    }
    // FFN down projection.
    {
        Operator op;
        op.kind = OpKind::MatMul;
        op.name = "ffn.down";
        op.m = b_local * s;
        op.k = ffn_l;
        op.n = h;
        op.hbmReadBytes = static_cast<double>(op.k) * op.n * kBf16;
        op.hbmWriteBytes = act_bytes;
        add(op);
    }
    // Tensor-parallel AllReduce of FFN output.
    if (t > 1) {
        Operator op;
        op.kind = OpKind::Collective;
        op.name = "ffn.allreduce";
        op.coll = CollKind::AllReduce;
        op.collBytes = act_bytes;
        add(op);
    }
}

/** Pipeline boundary transfer block (pp > 1). */
void
maybeAddPipelineBlock(OperatorGraph &g, const LlamaConfig &cfg,
                      std::int64_t b_local, std::int64_t s,
                      const Parallelism &par)
{
    if (par.pp <= 1)
        return;
    Block blk;
    blk.name = "pipeline-xfer";
    blk.repeat = 1;
    Operator op;
    op.kind = OpKind::Collective;
    op.name = "pp.send_recv";
    op.coll = CollKind::P2P;
    op.collBytes =
        static_cast<double>(b_local) * s * cfg.hidden * kBf16;
    op.validate();
    blk.ops.push_back(std::move(op));
    g.blocks.push_back(std::move(blk));
}

/**
 * The per-replica batch. A ConfigError names @p card and @p phase
 * when data parallelism leaves a replica no request; the name is only
 * built then.
 */
std::int64_t
localBatch(std::int64_t batch, const Parallelism &par,
           const std::string &card, const char *phase)
{
    par.validate();
    std::int64_t b = batch / par.dp;
    REGATE_CHECK(b >= 1, card, " ", phase, ": batch ", batch,
                 " too small for dp=", par.dp);
    return b;
}

}  // namespace

graph::OperatorGraph
llamaPrefill(const LlamaConfig &cfg, std::int64_t batch,
             std::int64_t seq_len, const Parallelism &par)
{
    std::int64_t b_local = localBatch(batch, par, cfg.name, "prefill");
    OperatorGraph g;
    g.name = cfg.name + "-prefill";

    Block layer;
    layer.name = "layer";
    layer.repeat = static_cast<std::uint64_t>(
        std::max(1, cfg.layers / par.pp));
    emitLayer(layer.ops, cfg, b_local, seq_len, seq_len, par,
              /*decode=*/false);
    g.blocks.push_back(std::move(layer));

    // LM head over the last position of each request.
    Block head;
    head.name = "lm-head";
    Operator op;
    op.kind = OpKind::MatMul;
    op.name = "lm_head";
    op.m = b_local;
    op.k = cfg.hidden;
    op.n = std::max<std::int64_t>(1, cfg.vocab / par.tp);
    op.hbmReadBytes = static_cast<double>(op.k) * op.n * kBf16;
    op.validate();
    head.ops.push_back(std::move(op));
    g.blocks.push_back(std::move(head));

    maybeAddPipelineBlock(g, cfg, b_local, seq_len, par);
    g.validate();
    return g;
}

graph::OperatorGraph
llamaDecode(const LlamaConfig &cfg, std::int64_t batch,
            std::int64_t in_len, std::int64_t out_len,
            const Parallelism &par)
{
    REGATE_CHECK(out_len >= 1, "decode needs at least one output token");
    std::int64_t b_local = localBatch(batch, par, cfg.name, "decode");
    std::int64_t ctx = in_len + out_len / 2;

    OperatorGraph g;
    g.name = cfg.name + "-decode";

    Block step;
    step.name = "decode-step";
    step.repeat = static_cast<std::uint64_t>(out_len) *
                  static_cast<std::uint64_t>(
                      std::max(1, cfg.layers / par.pp));
    emitLayer(step.ops, cfg, b_local, /*s=*/1, ctx, par, /*decode=*/true);
    g.blocks.push_back(std::move(step));

    Block head;
    head.name = "lm-head";
    head.repeat = static_cast<std::uint64_t>(out_len);
    Operator op;
    op.kind = OpKind::MatMul;
    op.name = "lm_head";
    op.m = b_local;
    op.k = cfg.hidden;
    op.n = std::max<std::int64_t>(1, cfg.vocab / par.tp);
    op.hbmReadBytes = static_cast<double>(op.k) * op.n * kBf16;
    op.validate();
    head.ops.push_back(std::move(op));
    g.blocks.push_back(std::move(head));

    maybeAddPipelineBlock(g, cfg, b_local, 1, par);
    g.validate();
    return g;
}

graph::OperatorGraph
llamaTraining(const LlamaConfig &cfg, std::int64_t batch,
              std::int64_t seq_len, const Parallelism &par)
{
    std::int64_t b_local = localBatch(batch, par, cfg.name, "training");
    OperatorGraph g;
    g.name = cfg.name + "-training";

    // Forward + backward: backward re-runs each GEMM twice (dgrad +
    // wgrad), so emit the layer three times with the backward copies
    // carrying the same shapes. Vector work also roughly triples.
    Block layer;
    layer.name = "layer-fwd-bwd";
    layer.repeat = static_cast<std::uint64_t>(
                       std::max(1, cfg.layers / par.pp)) * 3;
    emitLayer(layer.ops, cfg, b_local, seq_len, seq_len, par,
              /*decode=*/false);
    g.blocks.push_back(std::move(layer));

    // Optimizer update (Adam) over local parameter shard.
    Block opt;
    opt.name = "optimizer";
    double params_local =
        cfg.params() / (par.tp * par.pp);
    {
        Operator op;
        op.kind = OpKind::Elementwise;
        op.name = "adam.update";
        op.vuOps = params_local * kOpsOptimizer;
        // Read weights+grads+2 moments (fp32), write weights+moments.
        op.hbmReadBytes = params_local * 4.0 * 4;
        op.hbmWriteBytes = params_local * 4.0 * 3;
        op.validate();
        opt.ops.push_back(std::move(op));
    }
    // Data-parallel gradient AllReduce.
    if (par.dp > 1) {
        Operator op;
        op.kind = OpKind::Collective;
        op.name = "grad.allreduce";
        op.coll = CollKind::AllReduce;
        op.collBytes = params_local * kBf16;
        op.validate();
        opt.ops.push_back(std::move(op));
    }
    g.blocks.push_back(std::move(opt));

    maybeAddPipelineBlock(g, cfg, b_local, seq_len, par);
    g.validate();
    return g;
}

}  // namespace models
}  // namespace regate
