#include "models/dlrm.h"

#include <array>

#include "common/error.h"
#include "common/units.h"

namespace regate {
namespace models {

using graph::Block;
using graph::CollKind;
using graph::Operator;
using graph::OperatorGraph;
using graph::OpKind;

namespace {

constexpr int kFp32 = 4;
constexpr double kOpsRelu = 1;
constexpr double kOpsInteraction = 3;  // mul + add + gather shuffle.

/** Emit an MLP stack as per-layer GEMM + ReLU. */
void
emitMlp(std::vector<Operator> &ops, const std::string &prefix,
        const std::vector<std::int64_t> &dims, std::int64_t rows)
{
    for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
        Operator gemm;
        gemm.kind = OpKind::MatMul;
        gemm.name = prefix + ".fc" + std::to_string(i);
        gemm.m = rows;
        gemm.k = dims[i];
        gemm.n = dims[i + 1];
        gemm.hbmReadBytes =
            static_cast<double>(gemm.k) * gemm.n * kFp32 +
            static_cast<double>(rows) * dims[i] * kFp32;
        gemm.hbmWriteBytes = static_cast<double>(rows) * dims[i + 1] *
                             kFp32;
        gemm.validate();
        ops.push_back(gemm);

        Operator relu;
        relu.kind = OpKind::Elementwise;
        relu.name = prefix + ".relu" + std::to_string(i);
        relu.vuOps = static_cast<double>(rows) * dims[i + 1] * kOpsRelu;
        relu.validate();
        ops.push_back(relu);
    }
}

}  // namespace

std::span<const DlrmConfig>
dlrmConfigs()
{
    // Pooling factors are small (most production tables are one-hot
    // or lightly multi-hot), which keeps the HBM gather traffic
    // comparable to the AllToAll payload; the torus-penalized AllToAll
    // then dominates, matching the paper's 98-99% ICI utilization
    // (Fig. 8).
    static const std::array<DlrmConfig, 3> cards = {{
        {"s", "DLRM-S", 26, 64, 1, 20.0 * 1e9, {13, 512, 256, 64},
         {512, 1024, 1024, 512, 256, 1}},
        {"m", "DLRM-M", 40, 128, 1, 45.0 * 1e9, {13, 512, 256, 128},
         {1024, 1024, 1024, 512, 256, 1}},
        {"l", "DLRM-L", 64, 128, 2, 98.0 * 1e9, {13, 512, 256, 128},
         {2048, 2048, 1024, 512, 256, 1}},
    }};
    return cards;
}

graph::OperatorGraph
dlrmInference(const DlrmConfig &cfg, std::int64_t batch, int chips)
{
    REGATE_CHECK(chips >= 1, "need at least one chip");
    std::int64_t b_local = std::max<std::int64_t>(1, batch / chips);
    double tables_local =
        static_cast<double>(cfg.tables) / chips;

    OperatorGraph g;
    g.name = cfg.name + "-inference";
    Block blk;
    blk.name = "request-batch";

    // Bottom MLP on the local batch shard.
    emitMlp(blk.ops, "bottom", cfg.bottomMlp, b_local);

    // Embedding lookups for this chip's table shard: the shard serves
    // lookups for the *global* batch.
    {
        Operator op;
        op.kind = OpKind::Embedding;
        op.name = "embedding.lookup";
        op.lookups = static_cast<double>(batch) * tables_local *
                     cfg.pooling;
        op.bytesPerLookup = static_cast<double>(cfg.embDim) * kFp32;
        op.hbmReadBytes = op.lookups * op.bytesPerLookup;
        // Pooling reduction on the VU.
        op.vuOps = op.lookups * cfg.embDim;
        op.validate();
        blk.ops.push_back(op);
    }

    // AllToAll: pooled embeddings from table shards to batch shards.
    if (chips > 1) {
        Operator op;
        op.kind = OpKind::Collective;
        op.name = "embedding.alltoall";
        op.coll = CollKind::AllToAll;
        op.collBytes = static_cast<double>(batch) * tables_local *
                       cfg.embDim * kFp32;
        op.validate();
        blk.ops.push_back(op);
    }

    // Feature interaction (pairwise dots) on the local batch shard.
    {
        Operator op;
        op.kind = OpKind::Elementwise;
        op.name = "interaction";
        double pairs = 0.5 * cfg.tables * (cfg.tables + 1);
        op.vuOps = static_cast<double>(b_local) * pairs * cfg.embDim *
                   kOpsInteraction;
        op.validate();
        blk.ops.push_back(op);
    }

    // Top MLP.
    emitMlp(blk.ops, "top", cfg.topMlp, b_local);

    g.blocks.push_back(std::move(blk));
    g.validate();
    return g;
}

}  // namespace models
}  // namespace regate
