/**
 * @file
 * DLRM recommendation-model workload generator (Table 1: DLRM-S/M/L
 * with 20/45/98 GB embedding tables [57, 5, 70]). Each card row
 * carries the spec `model` key that names it.
 *
 * Deployment follows production practice: embedding tables are
 * model-parallel (sharded by table across the pod) while the MLPs are
 * data-parallel; an AllToAll redistributes pooled embeddings from the
 * table shards to the batch shards every iteration. This makes DLRM
 * ICI-bound (§3 Fig. 8: 98-99% ICI temporal utilization) with near-zero
 * SA utilization.
 */

#ifndef REGATE_MODELS_DLRM_H
#define REGATE_MODELS_DLRM_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace regate {
namespace models {

/** Architecture parameters. */
struct DlrmConfig
{
    std::string key;            ///< Spec `model` value ("s").
    std::string name;
    int tables = 0;             ///< Number of embedding tables.
    std::int64_t embDim = 0;    ///< Embedding vector width.
    int pooling = 0;            ///< Lookups pooled per table access.
    double tableBytes = 0;      ///< Total embedding storage, bytes.
    std::vector<std::int64_t> bottomMlp;  ///< Dense-feature MLP dims.
    std::vector<std::int64_t> topMlp;     ///< Interaction MLP dims.
};

/** The cards of the three sizes studied. */
std::span<const DlrmConfig> dlrmConfigs();

/**
 * One inference batch on @p chips chips (table-parallel embeddings +
 * data-parallel MLPs), per chip.
 */
graph::OperatorGraph dlrmInference(const DlrmConfig &cfg,
                                   std::int64_t batch, int chips);

}  // namespace models
}  // namespace regate

#endif  // REGATE_MODELS_DLRM_H
