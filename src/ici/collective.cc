#include "ici/collective.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace regate {
namespace ici {

using graph::CollKind;

namespace {

// Software launch overhead per collective and per-hop wire latency.
constexpr double kLaunchSeconds = 2e-6;
constexpr double kHopSeconds = 0.3e-6;

// Fraction of raw link bandwidth sustainable by the ring algorithms.
constexpr double kLinkEfficiency = 0.85;

}  // namespace

CollectiveModel::CollectiveModel(const arch::NpuConfig &cfg,
                                 const Torus &torus)
    : cfg_(cfg), torus_(torus),
      chipBandwidth_(cfg.iciBandwidth() * kLinkEfficiency)
{
}

double
CollectiveModel::seconds(CollKind kind, std::uint64_t bytes) const
{
    const double n = torus_.numChips();
    const double frac = (n - 1.0) / n;
    const double b = static_cast<double>(bytes);

    double bw_term = 0.0;
    switch (kind) {
      case CollKind::AllReduce:
        bw_term = 2.0 * frac * b / chipBandwidth_;
        break;
      case CollKind::ReduceScatter:
      case CollKind::AllGather:
        bw_term = frac * b / chipBandwidth_;
        break;
      case CollKind::AllToAll: {
        // All-to-all is bisection-limited on a torus: unlike ring
        // collectives, traffic must cross the bisection, which scales
        // as the per-dimension ring length. This is what makes DLRM
        // ICI-bound (§3, Fig. 8).
        double penalty = std::max(
            1.0, std::pow(n, 1.0 / torus_.rank()));
        bw_term = frac * b / chipBandwidth_ * penalty;
        break;
      }
      case CollKind::P2P:
        bw_term = b / (cfg_.iciBandwidthPerLink * kLinkEfficiency);
        break;
      case CollKind::None:
        throw LogicError("collective without kind");
    }
    if (n <= 1.0)
        return 0.0;
    return kLaunchSeconds + torus_.diameterHops() * kHopSeconds + bw_term;
}

double
CollectiveModel::wireBytes(CollKind kind, std::uint64_t bytes) const
{
    const double n = torus_.numChips();
    const double frac = (n - 1.0) / n;
    const double b = static_cast<double>(bytes);

    double wire = 0.0;
    switch (kind) {
      case CollKind::AllReduce:
        wire = 2.0 * frac * b;
        break;
      case CollKind::ReduceScatter:
      case CollKind::AllGather:
      case CollKind::AllToAll:
        wire = frac * b;
        break;
      case CollKind::P2P:
        wire = b;
        break;
      case CollKind::None:
        throw LogicError("collective without kind");
    }
    return n <= 1.0 ? 0.0 : wire;
}

}  // namespace ici
}  // namespace regate
