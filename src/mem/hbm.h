/**
 * @file
 * HBM timing model: DMA transfer latency and the low-power
 * auto-refresh mode the HBM controller enters when gated (§4.1).
 *
 * NPU DMA requests are large, so a simple bandwidth + fixed-latency
 * model captures the timing: t = latency + bytes / bandwidth. When the
 * controller is idle long enough, ReGate powers off the DMA engine
 * and switches the controller to auto-refresh; refreshes still fire
 * every tREFI (3.9 us [11]) and their energy is charged to the gated
 * state via the logicOff leakage ratio.
 */

#ifndef REGATE_MEM_HBM_H
#define REGATE_MEM_HBM_H

#include <cstdint>

#include "arch/npu_config.h"

namespace regate {
namespace mem {

/** HBM channel/controller timing model. */
class HbmModel
{
  public:
    explicit HbmModel(const arch::NpuConfig &cfg);

    /** Seconds to move @p bytes (one direction). */
    double transferSeconds(std::uint64_t bytes) const;

    /** Sustained bandwidth, bytes/s. */
    double bandwidth() const { return bandwidth_; }

    /** Fixed access latency, seconds. */
    double latency() const { return latency_; }

    /** Refresh interval tREFI, seconds (auto-refresh cadence). */
    static constexpr double kRefreshInterval = 3.9e-6;

  private:
    double bandwidth_;
    double latency_;
};

}  // namespace mem
}  // namespace regate

#endif  // REGATE_MEM_HBM_H
