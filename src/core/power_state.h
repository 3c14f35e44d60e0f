/**
 * @file
 * The software-visible power modes of §4.2, which setpm instructions
 * carry (isa/instruction.h). The core model tracks each unit's
 * physical power state itself (isa::VliwCore).
 */

#ifndef REGATE_CORE_POWER_STATE_H
#define REGATE_CORE_POWER_STATE_H

#include <cstdint>
#include <string>

namespace regate {
namespace core {

/**
 * The §4.2 power modes. `Auto` delegates to the hardware-managed
 * policy; `On`/`Off`/`Sleep` are software overrides set via setpm.
 */
enum class PowerMode : std::uint8_t { Auto, On, Off, Sleep };

/** Printable mode name. */
std::string powerModeName(PowerMode mode);

}  // namespace core
}  // namespace regate

#endif  // REGATE_CORE_POWER_STATE_H
