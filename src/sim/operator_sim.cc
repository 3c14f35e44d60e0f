#include "sim/operator_sim.h"

#include <algorithm>
#include <cmath>

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

/**
 * Build a bursty timeline: ~@p bursts bursts covering ~@p active of
 * @p span cycles. Falls back to all-active / all-idle at the
 * extremes.
 */
ActivityTimeline
burstTimeline(Cycles span, Cycles active, std::uint64_t bursts)
{
    if (span == 0)
        return ActivityTimeline();
    if (active == 0)
        return ActivityTimeline::allIdle(span);
    if (active >= span)
        return ActivityTimeline::allActive(span);
    bursts = std::clamp<std::uint64_t>(bursts, 1, active);
    Cycles burst_len = std::max<Cycles>(1, active / bursts);
    Cycles period = std::max<Cycles>(burst_len + 1, span / bursts);
    return ActivityTimeline::periodic(span, 0, burst_len, period);
}

}  // namespace

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

OpExecution
OperatorSimulator::simulate(const graph::Operator &op) const
{
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
        ex.active[Component::Sa] =
            serial / cfg_.numSa +
            sa::analyzeTile(1, std::min<int>(op.k, cfg_.saWidth), 1,
                            cfg_.saWidth)
                .weightLoadCycles;
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
    ex.active[Component::Vu] = static_cast<Cycles>(
        std::ceil(ex.work.vuOps / lanes_total));

    // ---- HBM ----
    double hbm_bytes = op.hbmBytes();
    double hbm_seconds = 0;
    if (op.kind == OpKind::Embedding) {
        hbm_seconds = hbm_.transferSeconds(
                          static_cast<std::uint64_t>(hbm_bytes)) /
                      kGatherEfficiency;
    } else if (hbm_bytes > 0) {
        hbm_seconds = hbm_.transferSeconds(
            static_cast<std::uint64_t>(hbm_bytes));
    }
    ex.active[Component::Hbm] = cfg_.cyclesFor(hbm_seconds);
    ex.work.hbmBytes = hbm_bytes;

    // ---- ICI ----
    if (op.kind == OpKind::Collective) {
        auto kind = [&] {
            switch (op.coll) {
              case graph::CollKind::AllReduce:
                return ici::CollectiveKind::AllReduce;
              case graph::CollKind::ReduceScatter:
                return ici::CollectiveKind::ReduceScatter;
              case graph::CollKind::AllGather:
                return ici::CollectiveKind::AllGather;
              case graph::CollKind::AllToAll:
                return ici::CollectiveKind::AllToAll;
              case graph::CollKind::P2P:
                return ici::CollectiveKind::P2PSendRecv;
              default:
                throw LogicError("collective without kind");
            }
        }();
        double secs = coll_.seconds(
            kind, static_cast<std::uint64_t>(op.collBytes));
        ex.active[Component::Ici] = cfg_.cyclesFor(secs);
        ex.work.iciBytes = coll_.wireBytes(
            kind, static_cast<std::uint64_t>(op.collBytes));
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

    // ---- Activity timelines ----
    std::uint64_t chunks = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(hbm_bytes / (4 << 20)));
    ex.timeline[Component::Sa] =
        burstTimeline(ex.duration, ex.active[Component::Sa], 1);
    ex.timeline[Component::Vu] = burstTimeline(
        ex.duration, ex.active[Component::Vu],
        op.kind == OpKind::MatMul && !op.mapToVu ? tiles : chunks);
    ex.timeline[Component::Hbm] =
        burstTimeline(ex.duration, ex.active[Component::Hbm], chunks);
    ex.timeline[Component::Ici] =
        burstTimeline(ex.duration, ex.active[Component::Ici], 1);
    return ex;
}

}  // namespace sim
}  // namespace regate
