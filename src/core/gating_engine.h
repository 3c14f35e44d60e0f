/**
 * @file
 * The ReGate gating engine: evaluates what a gating policy does to one
 * unit's static energy given its activity timeline.
 *
 * Three mechanisms are modeled, matching the paper's design space:
 *
 *  - HwDetect: the idle-detection FSM (§4.1). Gates after observing
 *    `detectionWindow` idle cycles (BET/3 [7]); the window is wasted at
 *    full leakage, the next access pays an exposed wake-up delay, and
 *    the FSM happily gates intervals below break-even (it cannot see
 *    the future) — this is why ReGate-Base loses energy on short gaps.
 *
 *  - SwExact: compiler-managed setpm (§4.3). Gates exactly the idle
 *    intervals that pass the BET-based policy (idle > BET and idle >
 *    2x on/off delay); transitions fit inside the interval and the
 *    wake-up is issued early, so no delay is exposed.
 *
 *  - Ideal: the §6.1 roofline — zero gated leakage, zero delay, every
 *    idle cycle gated, no transition energy.
 */

#ifndef REGATE_CORE_GATING_ENGINE_H
#define REGATE_CORE_GATING_ENGINE_H

#include <cstddef>
#include <cstdint>

#include "arch/gating_params.h"
#include "core/activity.h"

namespace regate {
namespace core {

/** How a unit's idleness is exploited. */
enum class GatingMode { None, HwDetect, SwExact, Ideal };

/** Number of GatingMode values. */
constexpr std::size_t kNumGatingModes = 4;

/** Static description of the unit being gated. */
struct UnitSpec
{
    arch::GatedUnit kind;    ///< Selects Table 3 delay/BET/leakage.
    double staticPower = 0;  ///< Active-state static power, watts.
    double cycleTime = 0;    ///< Seconds per cycle.
};

/** Outcome of evaluating one unit timeline under one policy. */
struct GatingResult
{
    Cycles span = 0;            ///< Timeline length, cycles.
    Cycles activeCycles = 0;    ///< Cycles the unit did work.
    Cycles gatedCycles = 0;     ///< Cycles spent in the gated state.
    double staticEnergyNoPg = 0;///< Baseline static energy, J.
    double staticEnergy = 0;    ///< Static energy with gating, J
                                ///< (includes transition overheads).
    double transitionEnergy = 0;///< Energy of on/off transitions, J.
    std::uint64_t gateEvents = 0;  ///< Number of gated intervals.

    /** Net static energy saved (can be negative for HwDetect). */
    double saved() const { return staticEnergyNoPg - staticEnergy; }
};

/**
 * Evaluate @p mode on one unit over @p timeline.
 *
 * @param timeline Activity of the unit (span, active cycles, idle-gap
 *                 multiset).
 * @param spec     Unit kind, static power, cycle time.
 * @param mode     Gating mechanism to apply.
 * @param params   Delays, BETs, windows, leakage ratios.
 */
GatingResult evaluateTimeline(const ActivityTimeline &timeline,
                              const UnitSpec &spec, GatingMode mode,
                              const arch::GatingParams &params);

}  // namespace core
}  // namespace regate

#endif  // REGATE_CORE_GATING_ENGINE_H
