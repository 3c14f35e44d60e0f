/**
 * @file
 * The tensor-operator IR the workload generators emit and the
 * compiler/simulator consume. Each operator carries the per-chip work
 * quantities the tile-level simulator needs (§4.4: "tile-level
 * information, including computation, SRAM access, and ICI/DMA
 * operations").
 */

#ifndef REGATE_GRAPH_OPERATOR_H
#define REGATE_GRAPH_OPERATOR_H

#include <cstdint>
#include <string>

#include "graph/tensor.h"

namespace regate {
namespace graph {

/** Operator categories. */
enum class OpKind : std::uint8_t {
    MatMul,       ///< GEMM (attention/conv are lowered to GEMMs).
    Elementwise,  ///< Add/mul/activation chains on the VU.
    Softmax,      ///< Row softmax (VU + memory).
    Normalization,///< LayerNorm / RMSNorm.
    Embedding,    ///< Table lookup + pooling (DLRM).
    Collective,   ///< ICI collective.
    Transfer,     ///< Pure HBM copy (weight prefetch, KV-cache IO).
};

/** Printable name. */
std::string opKindName(OpKind kind);

/** Collective kinds (mirrors ici::CollectiveKind to avoid a cycle). */
enum class CollKind : std::uint8_t {
    None,
    AllReduce,
    ReduceScatter,
    AllGather,
    AllToAll,
    P2P,
};

/** One tensor operator, sized per chip. */
struct Operator
{
    OpKind kind = OpKind::Elementwise;
    std::string name;

    /**
     * Effective GEMM dims for MatMul ops: batch independent GEMMs of
     * [m, k] x [k, n]. Conv2D is lowered by the model generators to
     * the im2col GEMM (m = out pixels, k = cin*kh*kw, n = cout).
     */
    std::int64_t batch = 1;
    std::int64_t m = 0, k = 0, n = 0;

    /** VU lane-operations (activations, reductions, optimizer math). */
    double vuOps = 0;

    /** HBM traffic in bytes (weights + non-resident activations). */
    double hbmReadBytes = 0;
    double hbmWriteBytes = 0;

    /** Collective payload per chip (Collective ops only). */
    CollKind coll = CollKind::None;
    double collBytes = 0;

    /** Embedding ops: lookups per chip and bytes per lookup. */
    double lookups = 0;
    double bytesPerLookup = 0;

    // ---- Filled in by the compiler (tiling / fusion passes) ----

    /** Fused into the previous operator (no HBM round-trip). */
    bool fusedIntoPrev = false;

    /** SRAM working-set demand (Fig. 7 metric), bytes. */
    double sramDemandBytes = 0;

    /** Small GEMMs the compiler routes to the VU (§3: LLM decode). */
    bool mapToVu = false;

    /** GEMM MACs (0 for non-MatMul ops). */
    double macs() const;

    /** FLOPs (2 x MACs for GEMMs, vuOps otherwise). */
    double flops() const;

    /** Total HBM bytes. */
    double hbmBytes() const { return hbmReadBytes + hbmWriteBytes; }

    /** Sanity-check field consistency; throws ConfigError. */
    void validate() const;
};

}  // namespace graph
}  // namespace regate

#endif  // REGATE_GRAPH_OPERATOR_H
