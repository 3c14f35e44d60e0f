#include "arch/tech_node.h"

#include <array>

#include "common/error.h"
#include "common/units.h"

namespace regate {
namespace arch {

namespace {

using units::pJ;

/**
 * The node table, one row per TechNode in enum order. Columns: node,
 * name; density scale; leakage W/mm^2 of logic, SRAM, HBM PHY and ICI
 * PHY; SRAM MB/mm^2, HBM mm^2 per GB/s, ICI mm^2 per link; J per MAC,
 * SRAM byte, HBM byte (~7, ~4 and ~3.5 pJ/bit: HBM2, HBM2e, HBM3e), ICI
 * byte and VU op.
 */
constexpr std::array<TechParams, 3> kNodes = {{
    {TechNode::N16, "16nm", 1.0, 0.18, 0.35, 0.60, 0.32, 1.0, 0.020, 5.0,
     pJ(2.0), pJ(1.5), pJ(56.0), pJ(40.0), pJ(2.5)},
    {TechNode::N7, "7nm", 3.0, 0.35, 0.65, 0.98, 0.43, 2.8, 0.007, 3.5,
     pJ(0.6), pJ(0.8), pJ(32.0), pJ(24.0), pJ(1.2)},
    {TechNode::N4, "4nm", 5.5, 0.50, 0.90, 1.14, 0.43, 3.5, 0.0035, 3.0,
     pJ(0.45), pJ(0.6), pJ(28.0), pJ(18.0), pJ(0.9)},
}};

static_assert(
    [] {
        for (std::size_t i = 0; i < kNodes.size(); ++i)
            if (kNodes[i].node != static_cast<TechNode>(i))
                return false;
        return true;
    }(),
    "kNodes must hold one row per TechNode, in enum order");

}  // namespace

const TechParams &
techParams(TechNode node)
{
    auto i = static_cast<std::size_t>(node);
    REGATE_ASSERT(i < kNodes.size(), "TechNode out of range");
    return kNodes[i];
}

}  // namespace arch
}  // namespace regate
