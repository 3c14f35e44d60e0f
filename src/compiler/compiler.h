/**
 * @file
 * The compiler backend driver: runs fusion and tiling over an
 * operator graph (the tile-level path the engine consumes), and the
 * idleness + instrumentation passes over VLIW kernels (the ISA-level
 * path, §4.3). Mirrors the paper's backend, where both passes run
 * after instruction scheduling and SRAM allocation.
 */

#ifndef REGATE_COMPILER_COMPILER_H
#define REGATE_COMPILER_COMPILER_H

#include "arch/gating_params.h"
#include "arch/npu_config.h"
#include "compiler/fusion.h"
#include "compiler/idleness.h"
#include "compiler/instrument.h"
#include "compiler/scheduler.h"
#include "compiler/tiling.h"
#include "graph/graph.h"

namespace regate {
namespace compiler {

/** Combined result of the graph-level passes. */
struct CompileResult
{
    graph::OperatorGraph graph;  ///< The annotated input.
    FusionStats fusion;
    TilingStats tiling;
};

/** Run fusion + tiling for @p cfg over @p input, moved into the result. */
CompileResult compileGraph(graph::OperatorGraph input,
                           const arch::NpuConfig &cfg);

/**
 * Compile a VLIW kernel with software-managed VU power gating:
 * schedule, analyze idleness, instrument with setpm.
 */
struct KernelCompileResult
{
    isa::Program program;
    IdlenessAnalysis idleness;
    InstrumentStats instrumentation;
};

KernelCompileResult compileKernel(const KernelSpec &spec,
                                  const isa::VliwCoreConfig &core_cfg,
                                  const arch::GatingParams &params);

}  // namespace compiler
}  // namespace regate

#endif  // REGATE_COMPILER_COMPILER_H
