/**
 * @file
 * Tests for the HBM timing model.
 */

#include <gtest/gtest.h>

#include "common/units.h"
#include "mem/hbm.h"

namespace regate {
namespace mem {
namespace {

using arch::NpuGeneration;

TEST(Hbm, TransferTimeModel)
{
    HbmModel hbm(arch::npuConfig(NpuGeneration::D));
    EXPECT_DOUBLE_EQ(hbm.transferSeconds(0), 0.0);
    // Latency floor for small transfers.
    EXPECT_GE(hbm.transferSeconds(64), hbm.latency());
    // Large transfers approach bandwidth-limited time.
    double t = hbm.transferSeconds(units::GiB(1));
    double ideal = static_cast<double>(units::GiB(1)) / hbm.bandwidth();
    EXPECT_NEAR(t, ideal, hbm.latency() * 2);
}

TEST(Hbm, BandwidthBelowPeak)
{
    const auto &cfg = arch::npuConfig(NpuGeneration::D);
    HbmModel hbm(cfg);
    EXPECT_LT(hbm.bandwidth(), cfg.hbmBandwidth);
    EXPECT_GT(hbm.bandwidth(), 0.8 * cfg.hbmBandwidth);
}

TEST(Hbm, CyclesRoundUp)
{
    HbmModel hbm(arch::npuConfig(NpuGeneration::D));
    EXPECT_GT(hbm.transferCycles(1), 0u);
}

TEST(Hbm, FasterGenerationsMoveDataFaster)
{
    HbmModel a(arch::npuConfig(NpuGeneration::A));
    HbmModel e(arch::npuConfig(NpuGeneration::E));
    EXPECT_GT(a.transferSeconds(units::MiB(64)),
              e.transferSeconds(units::MiB(64)));
}

}  // namespace
}  // namespace mem
}  // namespace regate
