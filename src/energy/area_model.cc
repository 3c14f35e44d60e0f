#include "energy/area_model.h"

namespace regate {
namespace energy {

using arch::Component;

namespace {

// Logic block areas at the 16 nm reference node, mm^2, divided by the
// node's densityScale. Calibrated with leakageDensityLogic: the SA
// takes 11.6% of NPU-D's static power, inside the §3 SA band (8%-14%,
// PowerModel.StaticSharesWithinPaperBands). Its die-area share is
// 16%-25% across A..E.
constexpr double kPeArea16 = 0.0010;       // bf16 MAC + 3 regs.
constexpr double kVuLaneArea16 = 0.0045;   // fp32 ALU + regfile slice.

// "Other" (management, control, PCIe, misc datapath) area relative to
// the sum of the modeled components. Repo choice: Other's static power
// is pinned by its share (power_model.cc), not by this area, so it sets
// only the die total (table2) and with it the overhead fraction below.
constexpr double kOtherAreaFactor = 0.72;

// ReGate's gating logic as a fraction of the area of the block it is
// attached to. The gating transistors add 6.36% per PE (§4.4). The
// rest are a repo choice, calibrated with it toward §4.4's < 3.3% on a
// TPUv4i-class chip: table2 prints 3.14%-3.95%, and energy_test's
// AreaModel.GatingOverheadMatchesPaperClaim checks NPU-D in 1%-4.5%.
// HBM and ICI add none: idle detection reuses their controllers and
// the whole IP is gated at once.
constexpr double kPeGatingArea = 0.0636;
constexpr double kSaControlArea = 0.00001;  // Row/col control per SA.
constexpr double kVuGatingArea = 0.034;     // VU gating + idle FSM.
constexpr double kSramGatingArea = 0.11;    // Sleep/off per SRAM mm^2.

}  // namespace

AreaModel::AreaModel(const arch::NpuConfig &cfg)
    : cfg_(cfg)
{
    cfg.validate();
    const auto &tech = arch::techParams(cfg.node);

    peArea_ = kPeArea16 / tech.densityScale;
    saArea_ = peArea_ * cfg.saWidth * cfg.saWidth;
    vuArea_ = kVuLaneArea16 / tech.densityScale * cfg.vuLanes();

    auto &mm2 = baseline_.mm2;
    mm2[Component::Sa] = saArea_ * cfg.numSa;
    mm2[Component::Vu] = vuArea_ * cfg.numVu;
    mm2[Component::Sram] =
        static_cast<double>(cfg.sramBytes) / (1 << 20) /
        tech.sramDensityMbPerMm2;
    mm2[Component::Hbm] = cfg.hbmBandwidth / 1e9 * tech.hbmAreaPerGBps;
    mm2[Component::Ici] = cfg.iciLinks * tech.iciAreaPerLink;

    double subtotal = mm2[Component::Sa] + mm2[Component::Vu] +
                      mm2[Component::Sram] + mm2[Component::Hbm] +
                      mm2[Component::Ici];
    mm2[Component::Other] = kOtherAreaFactor * subtotal;

    gatingOverhead_ = mm2[Component::Sa] * kPeGatingArea +
                      cfg.numSa * saArea_ * kSaControlArea +
                      mm2[Component::Vu] * kVuGatingArea +
                      mm2[Component::Sram] * kSramGatingArea;
}

}  // namespace energy
}  // namespace regate
