#include "core/bet.h"

#include "common/error.h"

namespace regate {
namespace core {

double
transitionEnergy(double unit_static_power, Cycles bet,
                 Cycles on_off_delay, double gated_leakage,
                 double cycle_time)
{
    REGATE_CHECK(unit_static_power >= 0, "negative static power");
    REGATE_CHECK(gated_leakage >= 0 && gated_leakage <= 1,
                 "leakage ratio out of [0,1]: ", gated_leakage);
    Cycles effective = bet > 2 * on_off_delay ? bet - 2 * on_off_delay : 0;
    return (1.0 - gated_leakage) * unit_static_power * cycle_time *
           static_cast<double>(effective);
}

bool
shouldGateSw(Cycles idle_len, Cycles bet, Cycles on_off_delay)
{
    return idle_len > bet && idle_len > 2 * on_off_delay;
}

bool
wouldGateHw(Cycles idle_len, Cycles detection_window)
{
    return idle_len >= detection_window;
}

}  // namespace core
}  // namespace regate
