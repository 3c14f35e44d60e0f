#include "core/power_state.h"

#include "common/error.h"

namespace regate {
namespace core {

std::string
powerModeName(PowerMode mode)
{
    switch (mode) {
      case PowerMode::Auto:
        return "auto";
      case PowerMode::On:
        return "on";
      case PowerMode::Off:
        return "off";
      case PowerMode::Sleep:
        return "sleep";
    }
    throw LogicError("unknown PowerMode");
}

}  // namespace core
}  // namespace regate
