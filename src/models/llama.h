/**
 * @file
 * Llama-family workload generators (Table 1): Llama3-8B, Llama2-13B,
 * Llama3-70B, Llama3.1-405B, for training, inference prefill, and
 * inference decode. Architecture parameters come from the public
 * model cards [33, 82]; each card row carries the spec `model` key
 * that names it, and the family table (models/generators.cc) reads
 * the accepted keys off these rows.
 *
 * Graphs are emitted per chip under a (dp, tp, pp) parallelism split:
 * tensor parallelism shards heads and FFN columns and inserts two
 * AllReduces per layer; data parallelism shards the batch and (for
 * training) adds the gradient AllReduce; pipeline parallelism shards
 * layers and adds P2P boundary transfers.
 */

#ifndef REGATE_MODELS_LLAMA_H
#define REGATE_MODELS_LLAMA_H

#include <cstdint>
#include <span>
#include <string>

#include "graph/graph.h"
#include "models/parallelism.h"

namespace regate {
namespace models {

/** Architecture parameters of one variant. */
struct LlamaConfig
{
    std::string key;  ///< Spec `model` value ("8b").
    std::string name;
    int layers = 0;
    std::int64_t hidden = 0;
    int heads = 0;
    int kvHeads = 0;
    std::int64_t headDim = 0;
    std::int64_t ffnHidden = 0;
    std::int64_t vocab = 0;

    /** Parameter count (weights only). */
    double params() const;

    /** Weight bytes in bf16. */
    double weightBytes() const { return params() * 2.0; }

    /** KV-cache bytes per token (all layers, bf16, K and V). */
    double kvBytesPerToken() const;
};

/** The cards of the four variants studied in the paper. */
std::span<const LlamaConfig> llamaConfigs();

/**
 * One training iteration (forward + backward + optimizer + gradient
 * AllReduce), per chip. @p batch is the global batch size.
 */
graph::OperatorGraph llamaTraining(const LlamaConfig &cfg,
                                   std::int64_t batch,
                                   std::int64_t seq_len,
                                   const Parallelism &par);

/** Prefill of @p seq_len input tokens for @p batch requests. */
graph::OperatorGraph llamaPrefill(const LlamaConfig &cfg,
                                  std::int64_t batch,
                                  std::int64_t seq_len,
                                  const Parallelism &par);

/**
 * Auto-regressive decode of @p out_len tokens following @p in_len
 * context tokens. The per-step context length is approximated by its
 * average (in_len + out_len / 2), so one decode step is analyzed and
 * repeated out_len times.
 */
graph::OperatorGraph llamaDecode(const LlamaConfig &cfg,
                                 std::int64_t batch,
                                 std::int64_t in_len,
                                 std::int64_t out_len,
                                 const Parallelism &par);

}  // namespace models
}  // namespace regate

#endif  // REGATE_MODELS_LLAMA_H
