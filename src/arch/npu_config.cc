#include "arch/npu_config.h"

#include <array>

#include "common/error.h"

namespace regate {
namespace arch {

using units::GBps;
using units::GiB;
using units::KiB;
using units::MHz;
using units::MiB;

const std::vector<NpuGeneration> &
allGenerations()
{
    static const std::vector<NpuGeneration> gens = {
        NpuGeneration::A, NpuGeneration::B, NpuGeneration::C,
        NpuGeneration::D, NpuGeneration::E,
    };
    return gens;
}

std::string
generationName(NpuGeneration gen)
{
    switch (gen) {
      case NpuGeneration::A:
        return "A";
      case NpuGeneration::B:
        return "B";
      case NpuGeneration::C:
        return "C";
      case NpuGeneration::D:
        return "D";
      case NpuGeneration::E:
        return "E";
    }
    throw LogicError("unknown NpuGeneration");
}

void
NpuConfig::validate() const
{
    REGATE_CHECK(frequencyHz > 0, name, ": frequency must be positive");
    REGATE_CHECK(saWidth > 0 && numSa > 0, name, ": bad SA config");
    REGATE_CHECK(numVu > 0 && vuSublanes > 0 && vuLaneWidth > 0, name,
                 ": bad VU config");
    REGATE_CHECK(sramBytes > 0 && sramSegmentBytes > 0, name,
                 ": bad SRAM config");
    REGATE_CHECK(sramBytes % sramSegmentBytes == 0, name,
                 ": SRAM size must be a multiple of the segment size");
    REGATE_CHECK(hbmBandwidth > 0 && hbmBytes > 0, name, ": bad HBM");
    REGATE_CHECK(iciLinks > 0 && iciBandwidthPerLink > 0, name,
                 ": bad ICI");
    REGATE_CHECK(torusDims == 2 || torusDims == 3, name,
                 ": torus must be 2D or 3D");
}

namespace {

// Table 2 of the paper, verbatim.
const std::array<NpuConfig, 5> kConfigs = {{
    {
        "NPU-A", NpuGeneration::A, 2017, TechNode::N16, MHz(700),
        /*saWidth=*/128, /*numSa=*/2, /*numVu=*/4,
        /*vuSublanes=*/8, /*vuLaneWidth=*/128,
        MiB(32), KiB(4),
        "HBM2", GBps(600), GiB(16),
        /*iciLinks=*/4, GBps(62), /*torusDims=*/2,
    },
    {
        "NPU-B", NpuGeneration::B, 2018, TechNode::N16, MHz(940),
        128, 4, 4, 8, 128,
        MiB(32), KiB(4),
        "HBM2", GBps(900), GiB(32),
        4, GBps(70), 2,
    },
    {
        "NPU-C", NpuGeneration::C, 2020, TechNode::N7, MHz(1050),
        128, 8, 4, 8, 128,
        MiB(128), KiB(4),
        "HBM2", GBps(1200), GiB(32),
        4, GBps(50), 2,
    },
    {
        "NPU-D", NpuGeneration::D, 2023, TechNode::N7, MHz(1750),
        128, 8, 6, 8, 128,
        MiB(128), KiB(4),
        "HBM2e", GBps(2765), GiB(95),
        6, GBps(100), 3,
    },
    {
        "NPU-E", NpuGeneration::E, 0, TechNode::N4, MHz(2000),
        256, 8, 8, 8, 128,
        MiB(256), KiB(4),
        "HBM3e", GBps(7400), GiB(192),
        6, GBps(150), 3,
    },
}};

}  // namespace

const NpuConfig &
npuConfig(NpuGeneration gen)
{
    const auto &cfg = kConfigs[static_cast<std::size_t>(gen)];
    REGATE_ASSERT(cfg.generation == gen, "config table out of order");
    return cfg;
}

}  // namespace arch
}  // namespace regate
