/**
 * @file
 * NPU chip specifications (the paper's Table 2).
 *
 * NPU-A/B/C/D are derived from TPUv2/3/4/5p; NPU-E is the projected
 * TPUv6p-class part. Values marked with (*) in the paper are inferred
 * from public data; we carry the paper's numbers verbatim.
 */

#ifndef REGATE_ARCH_NPU_CONFIG_H
#define REGATE_ARCH_NPU_CONFIG_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/tech_node.h"
#include "common/checked.h"
#include "common/units.h"

namespace regate {
namespace arch {

/** The five NPU generations studied in the paper. */
enum class NpuGeneration { A, B, C, D, E };

/** Number of NpuGeneration values (for per-generation tables). */
constexpr std::size_t kNumGenerations = 5;
static_assert(kNumGenerations ==
                  static_cast<std::size_t>(NpuGeneration::E) + 1,
              "update kNumGenerations when adding a generation");

/** All generations in order, for sweeps. */
const std::vector<NpuGeneration> &allGenerations();

/** Single-letter name ("A".."E"). */
std::string generationName(NpuGeneration gen);

/**
 * Full specification of one NPU chip generation, plus derived
 * quantities the simulator needs.
 */
struct NpuConfig
{
    std::string name;          ///< "NPU-A" .. "NPU-E".
    NpuGeneration generation;  ///< Which generation this is.
    int deploymentYear;        ///< 2017..2023; 0 for projected parts.
    TechNode node;             ///< Process node.
    double frequencyHz;        ///< Core clock.

    int saWidth;               ///< Systolic array is saWidth x saWidth.
    int numSa;                 ///< Number of systolic arrays.
    int numVu;                 ///< Number of vector units.
    int vuSublanes;            ///< SIMD rows per VU (8 on TPU).
    int vuLaneWidth;           ///< SIMD columns per VU (128 on TPU).

    std::uint64_t sramBytes;   ///< On-chip scratchpad capacity.
    std::uint64_t sramSegmentBytes;  ///< Power-gating granule (4 KB).

    std::string hbmType;       ///< "HBM2", "HBM2e", "HBM3e".
    double hbmBandwidth;       ///< Bytes/s.
    std::uint64_t hbmBytes;    ///< HBM capacity.

    int iciLinks;              ///< Links per chip (4 or 6).
    double iciBandwidthPerLink;///< Bytes/s per link per direction.
    int torusDims;             ///< 2 => 2D torus, 3 => 3D torus.

    /** Lanes per VU (sublanes x lane width). */
    int vuLanes() const { return vuSublanes * vuLaneWidth; }

    /** Seconds per core cycle. */
    double cycleTime() const { return 1.0 / frequencyHz; }

    /**
     * Cycles for a given duration, rounded up; an OverflowError
     * (common/checked.h) past 64 bits.
     */
    Cycles
    cyclesFor(double seconds) const
    {
        double c = seconds * frequencyHz;
        Cycles w = checkedCount(c, "cycle count");
        return c > static_cast<double>(w) ? w + 1 : w;
    }

    /** Peak bf16 FLOP/s across all SAs (2 flops per MAC). */
    double
    peakFlops() const
    {
        return 2.0 * static_cast<double>(numSa) * saWidth * saWidth *
               frequencyHz;
    }

    /** Peak MAC/s across all SAs. */
    double peakMacs() const { return peakFlops() / 2.0; }

    /** Peak VU elementwise op/s across all VUs. */
    double
    peakVuOps() const
    {
        return static_cast<double>(numVu) * vuLanes() * frequencyHz;
    }

    /** Number of 4 KB power-gating segments in the scratchpad. */
    std::uint64_t
    sramSegments() const
    {
        return sramBytes / sramSegmentBytes;
    }

    /** Aggregate ICI bandwidth (all links), bytes/s. */
    double
    iciBandwidth() const
    {
        return static_cast<double>(iciLinks) * iciBandwidthPerLink;
    }

    /** Throw ConfigError if any field is inconsistent. */
    void validate() const;
};

/** Table 2 configuration for one generation. */
const NpuConfig &npuConfig(NpuGeneration gen);

}  // namespace arch
}  // namespace regate

#endif  // REGATE_ARCH_NPU_CONFIG_H
