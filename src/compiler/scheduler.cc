#include "compiler/scheduler.h"

#include "arch/gating_params.h"
#include "common/error.h"

namespace regate {
namespace compiler {

namespace {

/** Issue hold before the reserved pm slot. */
Cycles
pmSlotNop(const KernelSpec &spec)
{
    // Bundles issued since the pop bundle: vuOpsPerTile - 1 VU
    // bundles at one cycle each; hold issue so the pm slot lands the
    // VU on/off delay before the next pop.
    const Cycles delay =
        arch::GatingParams{}.onOffDelay(arch::GatedUnit::Vu);
    Cycles consumed = static_cast<Cycles>(spec.vuOpsPerTile - 1);
    Cycles target = spec.popCycles > delay ? spec.popCycles - delay : 1;
    return target > consumed ? target - consumed : 1;
}

}  // namespace

isa::Program
buildMatmulKernel(const KernelSpec &spec)
{
    REGATE_CHECK(spec.numSa >= 1 && spec.numVu >= 1 && spec.tiles >= 1,
                 "degenerate kernel spec");
    REGATE_CHECK(spec.vuOpsPerTile >= 1, "need at least one VU op");

    isa::Program prog;
    for (int t = 0; t < spec.tiles; ++t) {
        // Pop the next tile from every SA; the first VU op of the
        // post-processing rides in the same bundle (the Fig. 15
        // I1/I5 pattern).
        auto b = prog.bundle();
        for (int s = 0; s < spec.numSa; ++s)
            b.saPop(s, spec.popCycles);
        for (int v = 0; v < spec.numVu; ++v)
            b.vuOp(v, spec.vuCycles);

        // Remaining VU post-processing bundles.
        for (int i = 1; i < spec.vuOpsPerTile; ++i) {
            auto vb = prog.bundle();
            for (int v = 0; v < spec.numVu; ++v)
                vb.vuOp(v, spec.vuCycles);
            if (i == spec.vuOpsPerTile - 1)
                vb.nop(pmSlotNop(spec));
        }
        if (spec.vuOpsPerTile == 1)
            b.nop(pmSlotNop(spec));

        // Reserved power-management slot (the Fig. 15 I4 bundle):
        // dispatches `wake delay` cycles before the next tile's pop,
        // so an instrumentation pass can wake the VUs with zero
        // exposed stall. Un-instrumented it is a harmless nop issued
        // while the SA pops drain.
        prog.bundle();
    }
    return prog;
}

}  // namespace compiler
}  // namespace regate
