/**
 * @file
 * Technology-node parameters for the area/power model.
 *
 * The paper's power model (§4.4) follows McPAT/NeuroMeter: component
 * area is derived from microarchitectural parameters and the feature
 * size, then static power comes from area x leakage density and dynamic
 * power from per-event switching energies. Every per-node constant is a
 * column of the node table in tech_node.cc, one row per TechNode.
 *
 * Provenance: the paper gives no per-node constant. Each column says
 * whether its 7 nm value (NPU-C/D) is calibrated to a §3 band, which
 * energy_test's PowerModel.StaticSharesWithinPaperBands (component
 * shares, NPU-D) or policy_property_test's StaticShareInPaperBand (busy
 * static share 30%-72%) checks, or is a repo choice. The 16 nm and 4 nm
 * rows are a repo choice throughout: the 7 nm row moved along the trend
 * of §1 and §3 (leakage density rises, switching energy falls at newer
 * nodes). No band checks them; energy_test's StaticPowerPlausible and
 * NewerNodesMoreEfficient bound them.
 */

#ifndef REGATE_ARCH_TECH_NODE_H
#define REGATE_ARCH_TECH_NODE_H

namespace regate {
namespace arch {

/** Process nodes used across NPU-A..E (Table 2). */
enum class TechNode { N16, N7, N4 };

/** One row of the node table. Densities are at nominal voltage. */
struct TechParams
{
    TechNode node;
    const char *name;  ///< Printable name ("16nm", ...; Table 2).

    /** Logic density vs 16 nm. Repo choice: foundry density steps. */
    double densityScale;
    /** SA/VU leakage, W/mm^2. Calibrated: §3 SA and VU bands. */
    double leakageDensityLogic;
    /** SRAM leakage, W/mm^2. Calibrated: §3 SRAM band. */
    double leakageDensitySram;
    /** HBM ctrl+PHY leakage, W/mm^2. Calibrated: §3 HBM band. */
    double hbmPhyLeakDensity;
    /** ICI ctrl+SerDes leakage, W/mm^2. Calibrated: §3 ICI band. */
    double iciPhyLeakDensity;

    /** SRAM MB/mm^2. Repo choice: SRAM shrinks less than logic. */
    double sramDensityMbPerMm2;
    /** HBM ctrl+PHY mm^2 per GB/s. Repo choice: PHYs shrink slowly. */
    double hbmAreaPerGBps;
    /** ICI ctrl+SerDes mm^2 per link. Repo choice, as above. */
    double iciAreaPerLink;

    /** J per bf16 MAC. Calibrated: §3 busy static share. */
    double energyPerMac;
    /** J per SRAM byte accessed. Calibrated: §3 busy static share. */
    double energyPerSramByte;
    /**
     * J per HBM byte (controller + PHY + DRAM IO). Repo choice: the
     * per-bit energy of the node's HBM generation.
     */
    double energyPerHbmByte;
    /** J per byte over one ICI link. Calibrated: §3 busy share. */
    double energyPerIciByte;
    /** J per VU lane op (fp32 ALU + regfile). Calibrated: as MAC. */
    double energyPerVuOp;
};

/** The node table's row for @p node. */
const TechParams &techParams(TechNode node);

}  // namespace arch
}  // namespace regate

#endif  // REGATE_ARCH_TECH_NODE_H
