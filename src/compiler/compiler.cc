#include "compiler/compiler.h"

#include <utility>

namespace regate {
namespace compiler {

CompileResult
compileGraph(graph::OperatorGraph input, const arch::NpuConfig &cfg)
{
    CompileResult result;
    result.graph = std::move(input);
    result.graph.validate();
    result.fusion = fuseGraph(result.graph, cfg.sramBytes);
    result.tiling = tileGraph(result.graph, cfg);
    return result;
}

KernelCompileResult
compileKernel(const KernelSpec &spec,
              const isa::VliwCoreConfig &core_cfg,
              const arch::GatingParams &params)
{
    KernelCompileResult result;
    result.program = buildMatmulKernel(spec);
    result.idleness = analyzeVuIdleness(result.program, core_cfg);
    result.instrumentation =
        instrumentVuGating(result.program, result.idleness, params);
    return result;
}

}  // namespace compiler
}  // namespace regate
