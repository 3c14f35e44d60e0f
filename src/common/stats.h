/**
 * @file
 * Small statistics helpers for the figure binaries.
 */

#ifndef REGATE_COMMON_STATS_H
#define REGATE_COMMON_STATS_H

#include <cstddef>
#include <utility>
#include <vector>

namespace regate {
namespace stats {

/** Arithmetic mean; 0 for an empty vector. */
double mean(const std::vector<double> &xs);

/** Minimum / maximum; throw on empty input. */
double minOf(const std::vector<double> &xs);
double maxOf(const std::vector<double> &xs);

/**
 * Pearson correlation coefficient squared (R^2) between two equal-length
 * samples, as used for simulator validation in the paper's Fig. 16.
 * A constant sample has no correlation: R^2 is 1 only when both samples
 * are constant and equal, and 0 when one of them varies or the two
 * constants differ.
 */
double r2(const std::vector<double> &xs, const std::vector<double> &ys);

/**
 * Weighted empirical CDF: given (value, weight) samples, returns the
 * sorted list of (value, cumulative weight fraction) points. Used for
 * the Fig. 7 SRAM-demand CDF where the weight is operator execution
 * time.
 */
std::vector<std::pair<double, double>>
weightedCdf(std::vector<std::pair<double, double>> samples);

/**
 * Evaluate a weighted CDF (as returned by weightedCdf) at @p value:
 * fraction of weight at or below the value.
 */
double cdfAt(const std::vector<std::pair<double, double>> &cdf,
             double value);

}  // namespace stats
}  // namespace regate

#endif  // REGATE_COMMON_STATS_H
