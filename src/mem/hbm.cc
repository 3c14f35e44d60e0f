#include "mem/hbm.h"

#include "common/error.h"

namespace regate {
namespace mem {

namespace {

// Effective HBM access latency (row activation + channel + on-chip
// network), a few hundred nanoseconds on TPUs (§4.3).
constexpr double kHbmLatencySeconds = 400e-9;

// Fraction of peak bandwidth sustainable by large DMA bursts.
constexpr double kBandwidthEfficiency = 0.9;

}  // namespace

HbmModel::HbmModel(const arch::NpuConfig &cfg)
    : bandwidth_(cfg.hbmBandwidth * kBandwidthEfficiency),
      latency_(kHbmLatencySeconds)
{
    REGATE_CHECK(bandwidth_ > 0, "HBM bandwidth must be positive");
}

double
HbmModel::transferSeconds(std::uint64_t bytes) const
{
    if (bytes == 0)
        return 0.0;
    return latency_ + static_cast<double>(bytes) / bandwidth_;
}

}  // namespace mem
}  // namespace regate
