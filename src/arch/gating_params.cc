#include "arch/gating_params.h"

#include <algorithm>
#include <array>

#include "common/error.h"

namespace regate {
namespace arch {

namespace {

/** One row of the gated-unit table. */
struct UnitRow
{
    GatedUnit unit;
    const char *name;
    Cycles onOffDelay;  ///< Power on/off delay, cycles. Paper: Table 3.
    Cycles breakEven;   ///< Break-even time (BET), cycles. Paper: Table 3.
    /** The ratio left leaking when gated. Paper: §6.1's settings. */
    double LeakageRatios::*gatedLeak;
};

/**
 * The gated-unit table, one row per GatedUnit in enum order: the
 * synthesized prototype's delays and BETs (Table 3); logic leaks
 * logicOff when gated, SRAM its sleep or off ratio (§6.1).
 */
constexpr std::array<UnitRow, 7> kUnits = {{
    {GatedUnit::SaPe, "SA (PE)", 1, 47, &LeakageRatios::logicOff},
    {GatedUnit::SaFull, "SA (full)", 10, 469, &LeakageRatios::logicOff},
    {GatedUnit::Vu, "VU", 2, 32, &LeakageRatios::logicOff},
    {GatedUnit::Hbm, "HBM", 60, 412, &LeakageRatios::logicOff},
    {GatedUnit::Ici, "ICI", 60, 459, &LeakageRatios::logicOff},
    {GatedUnit::SramSleep, "SRAM (sleep)", 4, 41, &LeakageRatios::sramSleep},
    {GatedUnit::SramOff, "SRAM (off)", 10, 82, &LeakageRatios::sramOff},
}};

static_assert(
    [] {
        for (std::size_t i = 0; i < kUnits.size(); ++i)
            if (kUnits[i].unit != static_cast<GatedUnit>(i))
                return false;
        return true;
    }(),
    "kUnits must hold one row per GatedUnit, in enum order");

const UnitRow &
row(GatedUnit unit)
{
    auto i = static_cast<std::size_t>(unit);
    REGATE_ASSERT(i < kUnits.size(), "GatedUnit out of range");
    return kUnits[i];
}

Cycles
scaleCycles(Cycles c, double s)
{
    double v = static_cast<double>(c) * s;
    auto w = static_cast<Cycles>(v);
    return v > static_cast<double>(w) ? w + 1 : w;
}

}  // namespace

std::string
gatedUnitName(GatedUnit unit)
{
    return row(unit).name;
}

Cycles
GatingParams::onOffDelay(GatedUnit unit) const
{
    return scaleCycles(row(unit).onOffDelay, delayScale_);
}

Cycles
GatingParams::breakEven(GatedUnit unit) const
{
    return scaleCycles(row(unit).breakEven, delayScale_);
}

Cycles
GatingParams::detectionWindow(GatedUnit unit) const
{
    Cycles w = breakEven(unit) / 3;
    return w > 0 ? w : 1;
}

double
GatingParams::gatedLeakage(GatedUnit unit) const
{
    return ratios_.*row(unit).gatedLeak;
}

bool
GatingParams::delayScaleFits(double scale)
{
    // The largest Table-3 entry bounds every scaled cycle count; 2^64
    // is the first double past the range of Cycles.
    Cycles largest = 0;
    for (const auto &unit : kUnits)
        largest = std::max({largest, unit.onOffDelay, unit.breakEven});
    return scale > 0.0 &&
           static_cast<double>(largest) * scale < 0x1p64;
}

void
GatingParams::setDelayScale(double scale)
{
    REGATE_CHECK(delayScaleFits(scale), "delay scale must be positive "
                 "and keep the Table-3 cycles in range, got ", scale);
    delayScale_ = scale;
}

}  // namespace arch
}  // namespace regate
