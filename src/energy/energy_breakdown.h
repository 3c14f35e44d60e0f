/**
 * @file
 * Per-component static/dynamic energy bookkeeping, mirroring the
 * paper's Fig. 3 breakdown (Idle + {static, dynamic} x {SA, VU, SRAM,
 * ICI, HBM, Other}).
 */

#ifndef REGATE_ENERGY_ENERGY_BREAKDOWN_H
#define REGATE_ENERGY_ENERGY_BREAKDOWN_H

#include "arch/component.h"

namespace regate {
namespace energy {

/** Energy (joules) split into static and dynamic per component. */
struct EnergyBreakdown
{
    arch::ComponentMap<double> staticJ;   ///< Leakage energy while busy.
    arch::ComponentMap<double> dynamicJ;  ///< Switching energy.
    double idleJ = 0;  ///< Energy burned outside the duty cycle.

    /** Total busy-time energy (static + dynamic, no idle). */
    double busyTotal() const;

    /** Total including the idle portion. */
    double total() const { return busyTotal() + idleJ; }

    /** Static share of busy energy (paper: 30%-72% across gens). */
    double staticShareBusy() const;
};

}  // namespace energy
}  // namespace regate

#endif  // REGATE_ENERGY_ENERGY_BREAKDOWN_H
