/**
 * @file
 * Half-open cycle intervals and utilities for turning per-cycle
 * activity traces (from the cycle-accurate simulators) into interval
 * lists. The analytical gating engine consumes the multiset of idle
 * gaps between intervals.
 */

#ifndef REGATE_CORE_INTERVAL_H
#define REGATE_CORE_INTERVAL_H

#include <vector>

#include "common/units.h"

namespace regate {
namespace core {

/** Half-open interval [start, end) in cycles. */
struct Interval
{
    Cycles start = 0;
    Cycles end = 0;

    Cycles length() const { return end - start; }
    bool empty() const { return end <= start; }

    bool
    operator==(const Interval &o) const
    {
        return start == o.start && end == o.end;
    }
};

/**
 * Sort intervals and merge overlapping or abutting ones. Throws
 * ConfigError on malformed (end < start) input.
 */
std::vector<Interval> normalize(std::vector<Interval> intervals);

/** Total covered length of a normalized interval list. */
Cycles coveredLength(const std::vector<Interval> &intervals);

/**
 * Complement of a normalized interval list within [0, span):
 * the idle intervals.
 */
std::vector<Interval> complementWithin(
    const std::vector<Interval> &intervals, Cycles span);

}  // namespace core
}  // namespace regate

#endif  // REGATE_CORE_INTERVAL_H
