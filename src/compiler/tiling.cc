#include "compiler/tiling.h"

#include <algorithm>

#include "common/error.h"

namespace regate {
namespace compiler {

using graph::OpKind;

namespace {

constexpr double kDtypeBytes = 2.0;  // bf16 compute path.

// GEMMs whose per-replica row count is below this are mapped to the
// VU: the tensors are too small to amortize the SA warm-up (§3, LLM
// decode).
constexpr std::int64_t kVuRowThreshold = 32;

// HBM latency assumed by the streaming double-buffer sizing; matches
// mem/hbm.cc.
constexpr double kHbmLatency = 400e-9;

/** Minimum double-buffer that hides HBM latency at full bandwidth. */
double
streamingBuffer(const arch::NpuConfig &cfg)
{
    return 2.0 * cfg.hbmBandwidth * kHbmLatency;
}

double
gemmDemand(const graph::Operator &op, const arch::NpuConfig &cfg)
{
    const double m = static_cast<double>(op.m);
    const double k = static_cast<double>(op.k);
    const double n = static_cast<double>(op.n);
    const double w = cfg.saWidth;

    // Full-reuse residency options for one GEMM instance: keep the
    // weights [k, n] and stream activation/output stripes of w rows,
    // or keep the activations [m, k] and stream weight/output stripes
    // of w columns. Double-buffer the streamed side.
    double weight_resident =
        k * n + 2.0 * std::min(m, w) * (k + n);
    double act_resident = m * k + 2.0 * std::min(n, w) * (k + m);
    return std::min(weight_resident, act_resident) * kDtypeBytes;
}

}  // namespace

double
operatorSramDemand(const graph::Operator &op, const arch::NpuConfig &cfg)
{
    switch (op.kind) {
      case OpKind::MatMul:
        return gemmDemand(op, cfg);
      case OpKind::Elementwise:
      case OpKind::Normalization:
        return streamingBuffer(cfg);
      case OpKind::Softmax:
        // Needs a full reduction row resident on top of the stream.
        return streamingBuffer(cfg) + (1 << 20);
      case OpKind::Embedding:
        // Pooling accumulators + gather staging.
        return 2.0 * streamingBuffer(cfg);
      case OpKind::Collective:
        // Ring-chunk staging buffers (send + recv, double-buffered).
        return std::min(op.collBytes, 4.0 * (1 << 20));
      case OpKind::Transfer:
        return streamingBuffer(cfg);
    }
    throw LogicError("unknown OpKind");
}

TilingStats
tileGraph(graph::OperatorGraph &graph, const arch::NpuConfig &cfg)
{
    TilingStats stats;
    for (auto &block : graph.blocks) {
        for (auto &op : block.ops) {
            op.sramDemandBytes =
                op.fusedIntoPrev ? 0.0 : operatorSramDemand(op, cfg);
            stats.maxDemandBytes =
                std::max(stats.maxDemandBytes, op.sramDemandBytes);
            if (op.kind == OpKind::MatMul &&
                op.m < kVuRowThreshold) {
                op.mapToVu = true;
                stats.vuMappedGemms += block.repeat;
            }
        }
    }
    return stats;
}

}  // namespace compiler
}  // namespace regate
