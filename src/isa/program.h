/**
 * @file
 * VLIW bundles and programs for the NPU core model, with a small
 * builder API so tests and examples can write kernels the way the
 * paper's Fig. 15 does:
 *
 *   Program p;
 *   p.bundle().saPop(0).saPop(1).vuOp(0).vuOp(1);
 *   p.bundle().vuOp(0).vuOp(1).setpm(0b11, FuType::Vu, PowerMode::Off);
 */

#ifndef REGATE_ISA_PROGRAM_H
#define REGATE_ISA_PROGRAM_H

#include <optional>
#include <vector>

#include "isa/instruction.h"

namespace regate {
namespace isa {

/** One operation in a bundle slot. */
struct SlotOp
{
    enum class Kind { SaPop, VuOp };

    Kind kind = Kind::VuOp;
    int unit = 0;       ///< Functional unit index.
    Cycles cycles = 1;  ///< Occupancy of the unit.
};

/** One VLIW instruction bundle. */
struct Bundle
{
    std::vector<SlotOp> ops;         ///< SA/VU slots in use.
    std::optional<SetpmInstr> misc;  ///< setpm in the misc slot.
    Cycles nopCycles = 0;            ///< `nop N`: delay the next issue.
};

/** A straight-line VLIW program. */
class Program
{
  public:
    /** Fluent builder for one bundle. */
    class BundleBuilder
    {
      public:
        explicit BundleBuilder(Bundle &b) : b_(b) {}

        /** pop: drain a tile from SA @p unit (default 8 cycles). */
        BundleBuilder &saPop(int unit, Cycles cycles = 8);

        /** A vector op on VU @p unit (default 1 cycle). */
        BundleBuilder &vuOp(int unit, Cycles cycles = 1);

        /** setpm with an immediate unit bitmap. */
        BundleBuilder &setpm(std::uint8_t bitmap, FuType type,
                             PowerMode mode);

        /** setpm for an SRAM address range. */
        BundleBuilder &setpmSram(std::uint8_t start_reg,
                                 std::uint8_t end_reg,
                                 PowerMode mode);

        /** `nop N`: hold issue for @p cycles after this bundle. */
        BundleBuilder &nop(Cycles cycles);

      private:
        Bundle &b_;
    };

    /** Append an empty bundle and return its builder. */
    BundleBuilder bundle();

    const std::vector<Bundle> &bundles() const { return bundles_; }
    std::size_t size() const { return bundles_.size(); }

    /** Count setpm instructions in the program. */
    std::size_t setpmCount() const;

  private:
    std::vector<Bundle> bundles_;
};

}  // namespace isa
}  // namespace regate

#endif  // REGATE_ISA_PROGRAM_H
