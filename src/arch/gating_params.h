/**
 * @file
 * Power-gating circuit parameters (the paper's Table 3) and the
 * leakage-ratio settings used in the evaluation (§6.1) and in the
 * sensitivity analysis (§6.5, Fig. 21/22).
 */

#ifndef REGATE_ARCH_GATING_PARAMS_H
#define REGATE_ARCH_GATING_PARAMS_H

#include <string>

#include "common/units.h"

namespace regate {
namespace arch {

/**
 * Everything on the chip that ReGate can power-gate. SA appears twice
 * because a single PE and the full array have very different wake-up
 * costs; SRAM appears twice for its SLEEP (data-retaining) and OFF
 * (gated-Vdd) modes.
 */
enum class GatedUnit {
    SaPe,       ///< One processing element of a systolic array.
    SaFull,     ///< An entire systolic array.
    Vu,         ///< One vector unit.
    Hbm,        ///< HBM controller & PHY (+ DMA engine).
    Ici,        ///< ICI controller & PHY.
    SramSleep,  ///< A 4 KB SRAM segment entering drowsy/sleep mode.
    SramOff,    ///< A 4 KB SRAM segment fully power-gated (data lost).
};

/** Printable unit name. */
std::string gatedUnitName(GatedUnit unit);

/**
 * Leakage power in low-power states, expressed as a fraction of the
 * active-state static power. Defaults are the paper's §6.1 settings;
 * Fig. 21 sweeps these.
 */
struct LeakageRatios
{
    double logicOff = 0.03;   ///< Power-gated logic.
    double sramSleep = 0.25;  ///< Drowsy SRAM cells.
    double sramOff = 0.002;   ///< Power-gated SRAM cells.

    bool
    operator==(const LeakageRatios &o) const
    {
        return logicOff == o.logicOff && sramSleep == o.sramSleep &&
               sramOff == o.sramOff;
    }
    bool operator!=(const LeakageRatios &o) const { return !(*this == o); }
};

/**
 * Full set of gating parameters used by the gating engine. delayScale
 * implements the Fig. 22 sweep (1x..4x on both on/off delays and BETs).
 */
class GatingParams
{
  public:
    /** Default parameters: Table 3 delays/BETs, §6.1 leakage ratios. */
    GatingParams() = default;

    /** Parameters with custom leakage ratios (Fig. 21). */
    explicit GatingParams(const LeakageRatios &ratios)
        : ratios_(ratios)
    {}

    /** On/off delay of a unit in cycles, after delay scaling. */
    Cycles onOffDelay(GatedUnit unit) const;

    /** Break-even time of a unit in cycles, after delay scaling. */
    Cycles breakEven(GatedUnit unit) const;

    /**
     * Idle-detection window used by hardware-managed policies before
     * gating a unit: BET/3 following Warped Gates [7] (§6.1).
     */
    Cycles detectionWindow(GatedUnit unit) const;

    /** Leakage fraction that remains when @p unit is gated. */
    double gatedLeakage(GatedUnit unit) const;

    const LeakageRatios &ratios() const { return ratios_; }

    double delayScale() const { return delayScale_; }

    /**
     * Scale all delays and BETs (Fig. 22: 1x, 1.5x, 2x, 3x, 4x).
     * ConfigError unless delayScaleFits(@p scale).
     */
    void setDelayScale(double scale);

    /**
     * True when @p scale is positive and every Table-3 delay and BET
     * scaled by it still fits in Cycles.
     */
    static bool delayScaleFits(double scale);

    void setRatios(const LeakageRatios &r) { ratios_ = r; }

    /**
     * Content equality over everything that influences gating
     * behaviour (ratios + delay scale): equal params evaluate
     * identically.
     */
    bool
    operator==(const GatingParams &o) const
    {
        return ratios_ == o.ratios_ && delayScale_ == o.delayScale_;
    }
    bool operator!=(const GatingParams &o) const { return !(*this == o); }

  private:
    LeakageRatios ratios_;
    double delayScale_ = 1.0;
};

}  // namespace arch
}  // namespace regate

#endif  // REGATE_ARCH_GATING_PARAMS_H
