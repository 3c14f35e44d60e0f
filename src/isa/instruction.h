/**
 * @file
 * The NPU VLIW ISA subset needed by ReGate: the §4.2 power modes and
 * the setpm power-management instruction (Fig. 14).
 *
 * A VLIW bundle has one slot per functional-unit class plus a
 * miscellaneous slot. setpm lives in the misc slot and comes in three
 * variants:
 *   1. SRAM: two scalar registers give the [start, end) address range
 *      whose segments change power mode.
 *   2. Functional units, bitmap in a scalar register.
 *   3. Functional units, bitmap as an 8-bit immediate.
 * The encoding covers SA, VU, SRAM and DMA targets; the core model
 * (isa/vliw_core.h) executes only SA and VU setpm.
 */

#ifndef REGATE_ISA_INSTRUCTION_H
#define REGATE_ISA_INSTRUCTION_H

#include <cstdint>
#include <string>

#include "common/units.h"

namespace regate {
namespace isa {

/**
 * The §4.2 power modes. `Auto` delegates to the hardware-managed
 * policy; `On`/`Off`/`Sleep` are software overrides set via setpm.
 */
enum class PowerMode : std::uint8_t { Auto, On, Off, Sleep };

/** Printable mode name. */
std::string powerModeName(PowerMode mode);

/** Functional-unit classes addressable by setpm (3-bit field). */
enum class FuType : std::uint8_t { Sa = 0, Vu = 1, Sram = 2, Dma = 3 };

/** Printable name. */
std::string fuTypeName(FuType t);

/** Decoded setpm instruction. */
struct SetpmInstr
{
    FuType fuType = FuType::Vu;
    PowerMode mode = PowerMode::Auto;

    /** Unit bitmap (variants 2/3); bit i targets unit i. */
    std::uint8_t bitmap = 0;

    /** True if the bitmap is an immediate (variant 3). */
    bool immediate = true;

    /** Scalar register holding the bitmap (variant 2). */
    std::uint8_t bitmapReg = 0;

    /** SRAM variant: scalar registers with start/end addresses. */
    std::uint8_t startAddrReg = 0;
    std::uint8_t endAddrReg = 0;

    bool operator==(const SetpmInstr &o) const;

    /** Human-readable form, e.g. "setpm 0b1011,vu,off". */
    std::string toString() const;
};

/**
 * Encode to the 32-bit misc-slot word. Layout (LSB first):
 *   [2:0]   fu_type
 *   [4:3]   power mode (0=auto, 1=on, 2=off, 3=sleep)
 *   [5]     immediate flag
 *   [13:6]  bitmap immediate or bitmap register
 *   [21:14] start address register (SRAM variant)
 *   [29:22] end address register (SRAM variant)
 *   [31:30] reserved, must be zero
 * Throws ConfigError for unencodable instructions (e.g. sleep mode on
 * a non-SRAM unit).
 */
std::uint32_t encodeSetpm(const SetpmInstr &instr);

/** Decode a misc-slot word; throws ConfigError on malformed input. */
SetpmInstr decodeSetpm(std::uint32_t word);

}  // namespace isa
}  // namespace regate

#endif  // REGATE_ISA_INSTRUCTION_H
