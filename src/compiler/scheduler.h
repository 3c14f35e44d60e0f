/**
 * @file
 * Kernel scheduler: lowers a tiled GEMM (+ VU post-processing) into a
 * VLIW program for the core model. This produces exactly the Fig. 15
 * instruction pattern: SA pops streaming output tiles while VUs
 * post-process them, with the VUs idle most of each period.
 */

#ifndef REGATE_COMPILER_SCHEDULER_H
#define REGATE_COMPILER_SCHEDULER_H

#include "isa/program.h"

namespace regate {
namespace compiler {

/** Shape of the kernel to schedule. */
struct KernelSpec
{
    int numSa = 2;          ///< SAs fed in parallel.
    int numVu = 2;          ///< VUs post-processing SA output.
    int tiles = 4;          ///< Output tiles per SA.
    Cycles popCycles = 8;   ///< Cycles per SA pop (8x128 elements).
    Cycles vuCycles = 1;    ///< VU cycles per popped tile.
    int vuOpsPerTile = 2;   ///< VU instructions per tile (e.g. add+act).
};

/**
 * Build the un-instrumented kernel: per tile, one bundle popping all
 * SAs, the VU post-processing bundles, and one reserved
 * power-management slot bundle timed to dispatch a VU wake-up delay
 * before the next pop (the Fig. 15 I4 position). No setpm
 * instructions; the instrumentation pass fills the reserved slots.
 */
isa::Program buildMatmulKernel(const KernelSpec &spec);

}  // namespace compiler
}  // namespace regate

#endif  // REGATE_COMPILER_SCHEDULER_H
