#include "energy/energy_breakdown.h"

namespace regate {
namespace energy {

double
EnergyBreakdown::busyTotal() const
{
    return staticJ.sum() + dynamicJ.sum();
}

double
EnergyBreakdown::staticShareBusy() const
{
    double busy = busyTotal();
    return busy > 0 ? staticJ.sum() / busy : 0.0;
}

}  // namespace energy
}  // namespace regate
