/**
 * @file
 * Break-even-time (BET) arithmetic (§2.3, §4.3).
 *
 * Powering a unit off and back on costs extra dynamic energy; gating
 * only pays off when the idle interval is longer than the BET. The
 * ReGate compiler policy additionally requires the interval to exceed
 * 2x the power-on/off delay so the transitions fit inside the idle
 * window without delaying execution.
 */

#ifndef REGATE_CORE_BET_H
#define REGATE_CORE_BET_H

#include "arch/gating_params.h"
#include "common/units.h"

namespace regate {
namespace core {

/**
 * Energy cost of one full off+on transition, joules.
 *
 * Defined by the break-even relation: an idle interval of exactly BET
 * cycles saves nothing, i.e.
 *   (1 - leak) * P * tau * (BET - 2 * delay) == E_transition.
 *
 * @param unit_static_power  Active-state static power of the unit, W.
 * @param bet                Break-even time, cycles.
 * @param on_off_delay       Power on/off delay, cycles.
 * @param gated_leakage      Residual leakage fraction when gated.
 * @param cycle_time         Seconds per cycle.
 */
double transitionEnergy(double unit_static_power, Cycles bet,
                        Cycles on_off_delay, double gated_leakage,
                        double cycle_time);

/**
 * The §4.3 software policy: gate only if the idle interval exceeds
 * both the BET and 2x the on/off delay.
 */
bool shouldGateSw(Cycles idle_len, Cycles bet, Cycles on_off_delay);

/**
 * The hardware idle-detection policy: the FSM gates whenever the unit
 * has been idle for the detection window; it cannot see the future, so
 * it gates even when the remaining idle time is below break-even.
 */
bool wouldGateHw(Cycles idle_len, Cycles detection_window);

}  // namespace core
}  // namespace regate

#endif  // REGATE_CORE_BET_H
