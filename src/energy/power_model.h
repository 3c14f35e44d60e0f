/**
 * @file
 * Static and dynamic power model (§4.4).
 *
 * Static power: per-component area x node leakage density, with
 * PHY-heavy blocks (HBM, ICI) using their own densities. "Other" is
 * pinned to ~42% of chip static power, inside the paper's 39.1%-45.8%
 * band.
 *
 * Dynamic energy: per-event switching costs (pJ/MAC, pJ/byte, ...)
 * from the technology parameters, plus a 20% overhead for control and
 * clock distribution attributed to "Other".
 */

#ifndef REGATE_ENERGY_POWER_MODEL_H
#define REGATE_ENERGY_POWER_MODEL_H

#include "arch/component.h"
#include "arch/gating_params.h"
#include "arch/npu_config.h"
#include "energy/area_model.h"

namespace regate {
namespace energy {

/** Work counters accumulated by the simulator for one interval. */
struct WorkCounters
{
    double macs = 0;        ///< SA multiply-accumulates.
    double vuOps = 0;       ///< VU lane operations.
    double sramBytes = 0;   ///< Scratchpad bytes read+written.
    double hbmBytes = 0;    ///< HBM bytes transferred.
    double iciBytes = 0;    ///< ICI bytes transferred (per chip).

    WorkCounters &operator+=(const WorkCounters &o);
};

/** Per-chip power model for one NPU generation. */
class PowerModel
{
  public:
    explicit PowerModel(const arch::NpuConfig &cfg);

    /** Active-state static power of one component, watts. */
    double staticPower(arch::Component c) const;

    /** Total chip static power (all components active), watts. */
    double totalStaticPower() const;

    /**
     * Static power of a single instance of a unit, watts: one SA, one
     * PE, one VU, one 4 KB SRAM segment. Used by the gating engine to
     * convert gated cycles into saved energy.
     */
    double saStaticPower() const;
    double peStaticPower() const;
    double vuStaticPower() const;
    double sramSegmentStaticPower() const;

    /**
     * Static power of one instance of a gated unit, watts: the PE, SA,
     * VU or SRAM segment above, or the whole HBM or ICI block. Table 3
     * derives each unit's transition energy from it.
     */
    double unitStaticPower(arch::GatedUnit unit) const;

    // Forwards to staticPower(Hbm) and staticPower(Ici), kept only
    // because perfbench/layer_trace.cc calls them. They go with that
    // tracer (ROADMAP item 6).
    double hbmStaticPower() const { return staticW_[arch::Component::Hbm]; }
    double iciStaticPower() const { return staticW_[arch::Component::Ici]; }

    /** Dynamic energy for a batch of work, joules, per component. */
    arch::ComponentMap<double>
    dynamicEnergy(const WorkCounters &work) const;

    const arch::NpuConfig &config() const { return cfg_; }
    const AreaModel &areaModel() const { return area_; }

  private:
    const arch::NpuConfig &cfg_;
    AreaModel area_;
    arch::ComponentMap<double> staticW_;
};

}  // namespace energy
}  // namespace regate

#endif  // REGATE_ENERGY_POWER_MODEL_H
