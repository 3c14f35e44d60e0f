/**
 * @file
 * Tiling pass: computes each operator's SRAM working-set demand (the
 * Fig. 7 metric) and routes GEMMs of fewer than 32 rows per replica
 * to the VU.
 *
 * Demand follows the paper's definition (§3): "the minimum tile size
 * that maximizes the on-chip data reuse". For a GEMM the cheapest
 * full-reuse residency is the smaller of weights or activations plus
 * streaming double-buffers; note this is a *demand*, not an
 * allocation — it can exceed the physical scratchpad (Fig. 7 shows up
 * to 1.5 GB for LLM training). For streaming operators the demand is
 * the minimum double-buffer that hides HBM latency.
 */

#ifndef REGATE_COMPILER_TILING_H
#define REGATE_COMPILER_TILING_H

#include "arch/npu_config.h"
#include "graph/graph.h"

namespace regate {
namespace compiler {

/** What the pass did. */
struct TilingStats
{
    std::uint64_t vuMappedGemms = 0;
    double maxDemandBytes = 0;
};

/** Annotate every operator in place. */
TilingStats tileGraph(graph::OperatorGraph &graph,
                      const arch::NpuConfig &cfg);

/** Demand of a single operator (exposed for tests). */
double operatorSramDemand(const graph::Operator &op,
                          const arch::NpuConfig &cfg);

}  // namespace compiler
}  // namespace regate

#endif  // REGATE_COMPILER_TILING_H
