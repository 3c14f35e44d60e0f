/**
 * @file
 * Compact activity timelines.
 *
 * A component's activity inside an operator is highly regular (§4.3,
 * Fig. 15: a VU is active 2 cycles out of every 16 while draining SA
 * outputs), so instead of storing per-cycle traces the simulator keeps
 * a compressed form: total span, total active cycles, the number of
 * activations (wake events), and the *multiset of idle-gap lengths*
 * stored as (length, count) groups. That multiset is exactly what the
 * BET-based gating policy needs, and it composes in O(log G) per
 * operator — G being the number of distinct gap lengths — even for
 * workloads spanning trillions of cycles.
 *
 * The gap multiset is kept sorted ascending by length as a class
 * invariant, so membership updates are binary searches, concatenation
 * is an ordered merge, and repetition is O(log G) seam arithmetic
 * rather than a loop over the repeat count.
 *
 * Inside one operator a unit's activity is a burst shape
 * (fromBursts): about `bursts` equal bursts covering about `active` of
 * `span` cycles, starting at the operator's first cycle. That is the
 * per-operator form the simulator records. appendBursts() composes a
 * shape onto a block in place, equal to append(fromBursts(...)) but
 * with no temporary: a shape starts active, so the block's trailing
 * gap survives the seam unchanged and the append costs at most two
 * O(log G) gap insertions plus O(1) bookkeeping, not an O(G) merge.
 *
 * A block timeline is then scaled and handed over without a copy:
 * repeat() is repeated() in place, and append() of an rvalue takes the
 * appended timeline's storage when this one is still empty (trimmed to
 * its size, so a stored run timeline keeps no spare capacity).
 */

#ifndef REGATE_CORE_ACTIVITY_H
#define REGATE_CORE_ACTIVITY_H

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "core/interval.h"

namespace regate {
namespace core {

/** A group of identical idle gaps: @c count gaps of @c length cycles. */
struct GapGroup
{
    Cycles length = 0;
    std::uint64_t count = 0;

    bool
    operator==(const GapGroup &o) const
    {
        return length == o.length && count == o.count;
    }
};

/**
 * Compressed activity timeline of one hardware unit over a stretch of
 * execution.
 *
 * Invariants: activeCycles + sum(gap lengths) == span; gaps_ sorted
 * ascending by length with no duplicate lengths and no zero counts;
 * leadingIdle/trailingIdle describe the first/last gap so that two
 * timelines can be concatenated with gap merging at the seam.
 */
class ActivityTimeline
{
  public:
    ActivityTimeline() = default;

    /** Unit busy for the whole span. */
    static ActivityTimeline allActive(Cycles span);

    /** Unit idle for the whole span. */
    static ActivityTimeline allIdle(Cycles span);

    /**
     * Periodic bursts: starting at @p offset, a burst of @p active_len
     * cycles every @p period cycles, as many whole bursts as fit in
     * @p span. Gaps before the first and after the last burst become
     * leading/trailing idle.
     */
    static ActivityTimeline periodic(Cycles span, Cycles offset,
                                     Cycles active_len, Cycles period);

    /**
     * A burst shape: about @p bursts bursts covering about @p active
     * of @p span cycles, the first starting at cycle 0. All idle when
     * @p active is 0, all active when it reaches @p span, empty when
     * @p span is 0; @p bursts is clamped to [1, @p active].
     */
    static ActivityTimeline fromBursts(Cycles span, Cycles active,
                                       std::uint64_t bursts);

    /** fromBursts(span, active, bursts).activations(), in O(1). */
    static std::uint64_t burstActivations(Cycles span, Cycles active,
                                          std::uint64_t bursts);

    /** From an explicit (normalized or not) interval list. */
    static ActivityTimeline fromIntervals(Cycles span,
                                          std::vector<Interval> active);

    /** Append another timeline after this one, merging seam gaps. */
    void append(const ActivityTimeline &next);

    /**
     * append(next), taking @p next's gap storage (trimmed to its size)
     * when this timeline is empty instead of copying it.
     */
    void append(ActivityTimeline &&next);

    /**
     * append(fromBursts(span, active, bursts)), in place: at most two
     * O(log G) gap insertions and no temporary timeline.
     */
    void appendBursts(Cycles span, Cycles active, std::uint64_t bursts);

    /** Scale the number of repetitions (e.g., one layer -> N layers). */
    ActivityTimeline repeated(std::uint64_t times) const;

    /** *this = repeated(times), in place: O(log G), no copy. */
    void repeat(std::uint64_t times);

    Cycles span() const { return span_; }
    Cycles activeCycles() const { return active_; }
    Cycles idleCycles() const { return span_ - active_; }

    /** Number of activations == wake events if fully gated when idle. */
    std::uint64_t activations() const { return activations_; }

    /** Idle-gap multiset, ascending by length. */
    const std::vector<GapGroup> &gaps() const { return gaps_; }

    /** Idle cycles before the first activation (0 if none). */
    Cycles leadingIdle() const { return leadingIdle_; }

    /** Idle cycles after the last activation (0 if none). */
    Cycles trailingIdle() const { return trailingIdle_; }

    /** Fraction of the span the unit is active. */
    double
    utilization() const
    {
        return span_ > 0 ?
            static_cast<double>(active_) / static_cast<double>(span_) : 0.0;
    }

    /** Exact structural equality (all fields, full gap multiset). */
    bool operator==(const ActivityTimeline &o) const;

    /** Verify internal invariants; throws LogicError on violation. */
    void checkInvariants() const;

  private:
    /** Add @p count gaps of @p length, keeping gaps_ sorted. O(log G). */
    void insertGap(Cycles length, std::uint64_t count);

    /** Remove @p count gaps of @p length; throws if absent. O(log G). */
    void removeGaps(Cycles length, std::uint64_t count);

    /**
     * Ordered-merge @p other into gaps_, dropping one gap of
     * @p skip_length from @p other (its seam-side gap). O(G).
     */
    void mergeGaps(const std::vector<GapGroup> &other, Cycles skip_length);

    Cycles span_ = 0;
    Cycles active_ = 0;
    std::uint64_t activations_ = 0;
    std::vector<GapGroup> gaps_;
    Cycles leadingIdle_ = 0;
    Cycles trailingIdle_ = 0;
};

}  // namespace core
}  // namespace regate

#endif  // REGATE_CORE_ACTIVITY_H
