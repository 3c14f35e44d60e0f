#include "sim/operator_sim.h"

#include <algorithm>
#include <cmath>

#include "common/checked.h"
#include "common/error.h"

namespace regate {
namespace sim {

using arch::Component;
using core::ActivityTimeline;
using graph::OpKind;

namespace {

/** Minimum operator latency (issue/control overhead). */
constexpr Cycles kMinOpCycles = 64;

/** Random-access efficiency of embedding gathers. */
constexpr double kGatherEfficiency = 0.5;

}  // namespace

ActivityTimeline
OpBursts::operator[](Component c) const
{
    if (c == Component::Sram || c == Component::Other)
        return ActivityTimeline();
    return ActivityTimeline::fromBursts(span, active[c], bursts[c]);
}

double
OpExecution::activeFraction(arch::Component c) const
{
    return duration > 0 ? static_cast<double>(active[c]) /
                              static_cast<double>(duration)
                        : 0.0;
}

OperatorSimulator::OperatorSimulator(const arch::NpuConfig &cfg,
                                     const ici::CollectiveModel &coll)
    : cfg_(cfg), coll_(coll), hbm_(cfg)
{
}

// A function-try-block, so that every count below names the operator.
OpExecution
OperatorSimulator::simulate(const graph::Operator &op) const
try {
    op.validate();
    OpExecution ex;

    const double lanes_total =
        static_cast<double>(cfg_.numVu) * cfg_.vuLanes();
    std::uint64_t tiles = 1;

    // ---- SA work ----
    if (op.kind == OpKind::MatMul && !op.mapToVu) {
        auto per_gemm = sa::analyzeMatmul(op.m, op.k, op.n, cfg_.saWidth);
        ex.saStats = per_gemm.scaled(static_cast<std::uint64_t>(op.batch));
        // GEMM instances and tiles distribute across the SAs; the
        // first weight load is exposed, later ones are
        // double-buffered behind compute.
        Cycles serial = ex.saStats.computeCycles;
        ex.active[Component::Sa] = checkedAdd(
            serial / cfg_.numSa,
            sa::analyzeTile(1,
                            static_cast<int>(std::min<std::int64_t>(
                                op.k, cfg_.saWidth)),
                            1, cfg_.saWidth)
                .weightLoadCycles,
            "SA cycle count");
        ex.work.macs = ex.saStats.macs;
        // The VUs drain/accumulate SA outputs (Fig. 15).
        ex.work.vuOps += static_cast<double>(op.batch) * op.m * op.n;
        tiles = std::max<std::uint64_t>(
            1, ex.saStats.macs / (static_cast<std::uint64_t>(
                                      cfg_.saWidth) *
                                  cfg_.saWidth * cfg_.saWidth));
    } else if (op.kind == OpKind::MatMul && op.mapToVu) {
        // Small GEMM on the VU: one MAC per lane per cycle.
        ex.work.vuOps += op.macs();
    }

    // ---- VU work ----
    ex.work.vuOps += op.vuOps;
    ex.active[Component::Vu] = checkedCount(
        std::ceil(ex.work.vuOps / lanes_total), "VU cycle count");

    // ---- HBM ----
    double hbm_bytes = op.hbmBytes();
    std::uint64_t hbm_count = checkedCount(hbm_bytes, "HBM byte count");
    double hbm_seconds = 0;
    if (op.kind == OpKind::Embedding) {
        hbm_seconds =
            hbm_.transferSeconds(hbm_count) / kGatherEfficiency;
    } else if (hbm_bytes > 0) {
        hbm_seconds = hbm_.transferSeconds(hbm_count);
    }
    ex.active[Component::Hbm] = cfg_.cyclesFor(hbm_seconds);
    ex.work.hbmBytes = hbm_bytes;

    // ---- ICI ----
    if (op.kind == OpKind::Collective) {
        std::uint64_t coll_bytes =
            checkedCount(op.collBytes, "collective byte count");
        ex.active[Component::Ici] =
            cfg_.cyclesFor(coll_.seconds(op.coll, coll_bytes));
        ex.work.iciBytes = coll_.wireBytes(op.coll, coll_bytes);
    }

    // ---- Latency: components overlap; the slowest one wins ----
    ex.duration = std::max({kMinOpCycles, ex.active[Component::Sa],
                            ex.active[Component::Vu],
                            ex.active[Component::Hbm],
                            ex.active[Component::Ici]});
    ex.bottleneck = Component::Other;
    Cycles best = 0;
    for (auto c : {Component::Sa, Component::Vu, Component::Hbm,
                   Component::Ici}) {
        if (ex.active[c] > best) {
            best = ex.active[c];
            ex.bottleneck = c;
        }
    }

    // ---- SRAM traffic & occupancy ----
    // Streams to/from HBM pass through the scratchpad; SA operands
    // stream once per tile row; VU operands come from vector memory.
    ex.work.sramBytes = 2.0 * hbm_bytes +
                        ex.work.macs / cfg_.saWidth * 4.0 +
                        ex.work.vuOps * 2.0;
    ex.sramUsedBytes = std::min(op.sramDemandBytes,
                                static_cast<double>(cfg_.sramBytes));

    // ---- Activity burst shapes ----
    // Repo choices, not paper values: HBM streams (and a VU that
    // follows them) run as one burst per 4 MiB chunk, a tiled MatMul's
    // VU as one burst per tile, and the SA and ICI as one burst per
    // operator. They shape the idle gaps that gating sees.
    std::uint64_t chunks = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(hbm_bytes / (4 << 20)));
    OpBursts &shape = ex.timeline;
    shape.span = ex.duration;
    shape.active = ex.active;
    shape.bursts[Component::Sa] = 1;
    shape.bursts[Component::Vu] =
        op.kind == OpKind::MatMul && !op.mapToVu ? tiles : chunks;
    shape.bursts[Component::Hbm] = chunks;
    shape.bursts[Component::Ici] = 1;
    return ex;
} catch (const OverflowError &e) {
    throw e.within("operator '" + op.name + "'");
}

}  // namespace sim
}  // namespace regate
