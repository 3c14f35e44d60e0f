/**
 * @file
 * Collective-operator cost model over the ICI torus (§2.1, §3).
 *
 * Bandwidth terms follow the standard ring-algorithm bounds, using
 * the chip's aggregate ICI bandwidth (torus rings use every link):
 *   AllReduce:      2 * (n-1)/n * bytes / B
 *   ReduceScatter:  (n-1)/n * bytes / B
 *   AllGather:      (n-1)/n * bytes / B
 *   AllToAll:       (n-1)/n * bytes / B * penalty(topology)
 *   P2P:            bytes / link_bw
 * plus a launch latency and per-hop wire latency; collectives are
 * "typically at least a few us" (§1), which these constants yield.
 */

#ifndef REGATE_ICI_COLLECTIVE_H
#define REGATE_ICI_COLLECTIVE_H

#include <cstdint>

#include "arch/npu_config.h"
#include "graph/operator.h"
#include "ici/topology.h"

namespace regate {
namespace ici {

/** Cost model bound to one chip generation and pod shape. */
class CollectiveModel
{
  public:
    CollectiveModel(const arch::NpuConfig &cfg, const Torus &torus);

    /**
     * Wall-clock seconds for a collective moving @p bytes per chip.
     * Single-chip pods cost 0 (no communication). CollKind::None is
     * a LogicError.
     */
    double seconds(graph::CollKind kind, std::uint64_t bytes) const;

    /** Bytes that actually cross this chip's links. */
    double wireBytes(graph::CollKind kind, std::uint64_t bytes) const;

    const Torus &torus() const { return torus_; }

  private:
    const arch::NpuConfig &cfg_;
    Torus torus_;
    double chipBandwidth_;  ///< Aggregate usable ICI bytes/s.
};

}  // namespace ici
}  // namespace regate

#endif  // REGATE_ICI_COLLECTIVE_H
