/**
 * @file
 * Chip area model in the spirit of McPAT [48] / NeuroMeter [80].
 *
 * Component areas are derived from microarchitectural parameters (SA
 * dimensions, VU lanes, SRAM capacity, HBM bandwidth, ICI link count)
 * and the feature size (§4.4). Areas feed the static-power model and
 * the hardware-overhead accounting (ReGate adds 3.3% chip area on a
 * TPUv4i-class chip; §4.4).
 */

#ifndef REGATE_ENERGY_AREA_MODEL_H
#define REGATE_ENERGY_AREA_MODEL_H

#include "arch/component.h"
#include "arch/npu_config.h"

namespace regate {
namespace energy {

/** Component areas in mm^2. */
struct AreaBreakdown
{
    arch::ComponentMap<double> mm2;  ///< Per-component area.

    /** Total die area, mm^2. */
    double total() const { return mm2.sum(); }

    /** Fraction of die area taken by @p c. */
    double
    share(arch::Component c) const
    {
        return mm2[c] / total();
    }
};

/** Parametric area model for one NPU chip. */
class AreaModel
{
  public:
    explicit AreaModel(const arch::NpuConfig &cfg);

    /** Baseline (no ReGate) component areas. */
    const AreaBreakdown &baseline() const { return baseline_; }

    /** Extra area added by the ReGate gating logic, mm^2. */
    double gatingOverheadMm2() const { return gatingOverhead_; }

    /** Gating overhead as a fraction of baseline die area. */
    double
    gatingOverheadFraction() const
    {
        return gatingOverhead_ / baseline_.total();
    }

    /** Area of one PE in mm^2 at this node. */
    double peArea() const { return peArea_; }

    /** Area of one full systolic array in mm^2. */
    double saArea() const { return saArea_; }

    /** Area of one vector unit in mm^2. */
    double vuArea() const { return vuArea_; }

  private:
    const arch::NpuConfig &cfg_;
    AreaBreakdown baseline_;
    double peArea_ = 0;
    double saArea_ = 0;
    double vuArea_ = 0;
    double gatingOverhead_ = 0;
};

}  // namespace energy
}  // namespace regate

#endif  // REGATE_ENERGY_AREA_MODEL_H
