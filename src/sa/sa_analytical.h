/**
 * @file
 * Closed-form model of the power-gated systolic array.
 *
 * The cycle-accurate simulator (systolic_array.h) is exact but O(W^2)
 * per cycle; whole-workload simulation needs the same numbers in O(1)
 * per tile. The formulas here are validated against the cycle-accurate
 * simulator by property tests over randomized shapes.
 *
 * For a [M, K] x [K, N] tile on a W x W weight-stationary array with
 * diagonal PE_on propagation:
 *   - compute cycles:  M + K + N - 1
 *   - ON PE-cycles:    M * K * N   (each active PE is ON for exactly
 *                                   the M cycles its operands pass by)
 *   - W_on PE-cycles:  K * N * (T - M)
 *   - OFF PE-cycles:   (W^2 - K * N) * T
 */

#ifndef REGATE_SA_SA_ANALYTICAL_H
#define REGATE_SA_SA_ANALYTICAL_H

#include <cstdint>

#include "common/units.h"

namespace regate {
namespace sa {

/** Closed-form per-tile numbers. */
struct SaTileStats
{
    Cycles computeCycles = 0;
    Cycles weightLoadCycles = 0;
    std::uint64_t peOnCycles = 0;
    std::uint64_t peWOnCycles = 0;
    std::uint64_t peOffCycles = 0;
    std::uint64_t macs = 0;

    double spatialUtilization() const;

    /** Total PE-cycles across all power states. */
    std::uint64_t
    totalPeCycles() const
    {
        return peOnCycles + peWOnCycles + peOffCycles;
    }

    /**
     * Sum and scale the counters; a counter past 64 bits is an
     * OverflowError (common/checked.h), not a wrap.
     */
    SaTileStats &operator+=(const SaTileStats &o);

    /** Multiply all counters by @p n (n identical tiles). */
    SaTileStats scaled(std::uint64_t n) const;
};

/**
 * Stats for one [m, k] x [k, n] tile on a width x width array.
 * Requires 1 <= k, n <= width and m >= 1.
 */
SaTileStats analyzeTile(std::int64_t m, int k, int n, int width);

/**
 * Stats for a full [M, K] x [K, N] matmul tiled onto a width x width
 * array: ceil(K/W) x ceil(N/W) weight tiles, edge tiles taking the
 * remainder dimensions; the whole M dimension streams through each
 * weight tile. Weight loads of subsequent tiles overlap with compute
 * (double-buffered weights), so only the first tile's load is
 * serialized.
 */
SaTileStats analyzeMatmul(std::int64_t m, std::int64_t k, std::int64_t n,
                          int width);

/**
 * Static energy of the SA during a tile/operator under PE-level gating
 * (ReGate-HW and up), joules.
 *
 * @param stats          Output of analyzeTile/analyzeMatmul.
 * @param pe_static_w    Active static power of one PE, watts.
 * @param cycle_time     Seconds per cycle.
 * @param w_on_fraction  Fraction of PE static power consumed in W_on
 *                       mode (weight register only).
 * @param off_leakage    Residual leakage fraction in OFF mode.
 */
double saStaticEnergyGated(const SaTileStats &stats, double pe_static_w,
                           double cycle_time, double w_on_fraction,
                           double off_leakage);

/**
 * Fraction of PE static power consumed in W_on mode. Repo choice: the
 * weight register's share of a PE (bf16 MAC + 3 registers); the paper
 * gives no value and no band checks it.
 */
constexpr double kWOnPowerFraction = 0.15;

}  // namespace sa
}  // namespace regate

#endif  // REGATE_SA_SA_ANALYTICAL_H
