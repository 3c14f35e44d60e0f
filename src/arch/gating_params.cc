#include "arch/gating_params.h"

#include <algorithm>
#include <array>

#include "common/error.h"

namespace regate {
namespace arch {

std::string
gatedUnitName(GatedUnit unit)
{
    switch (unit) {
      case GatedUnit::SaPe:
        return "SA (PE)";
      case GatedUnit::SaFull:
        return "SA (full)";
      case GatedUnit::Vu:
        return "VU";
      case GatedUnit::Hbm:
        return "HBM";
      case GatedUnit::Ici:
        return "ICI";
      case GatedUnit::SramSleep:
        return "SRAM (sleep)";
      case GatedUnit::SramOff:
        return "SRAM (off)";
    }
    throw LogicError("unknown GatedUnit");
}

namespace {

// Table 3 of the paper: power on/off delay and break-even time, cycles.
const std::array<UnitGatingParams, 7> kTable3 = {{
    /* SaPe      */ {1, 47},
    /* SaFull    */ {10, 469},
    /* Vu        */ {2, 32},
    /* Hbm       */ {60, 412},
    /* Ici       */ {60, 459},
    /* SramSleep */ {4, 41},
    /* SramOff   */ {10, 82},
}};

const UnitGatingParams &
table3(GatedUnit unit)
{
    return kTable3[static_cast<std::size_t>(unit)];
}

Cycles
scaleCycles(Cycles c, double s)
{
    double v = static_cast<double>(c) * s;
    auto w = static_cast<Cycles>(v);
    return v > static_cast<double>(w) ? w + 1 : w;
}

}  // namespace

Cycles
GatingParams::onOffDelay(GatedUnit unit) const
{
    return scaleCycles(table3(unit).onOffDelay, delayScale_);
}

Cycles
GatingParams::breakEven(GatedUnit unit) const
{
    return scaleCycles(table3(unit).breakEven, delayScale_);
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
    switch (unit) {
      case GatedUnit::SramSleep:
        return ratios_.sramSleep;
      case GatedUnit::SramOff:
        return ratios_.sramOff;
      default:
        return ratios_.logicOff;
    }
}

bool
GatingParams::delayScaleFits(double scale)
{
    // The largest Table-3 entry bounds every scaled cycle count; 2^64
    // is the first double past the range of Cycles.
    Cycles largest = 0;
    for (const auto &unit : kTable3)
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
