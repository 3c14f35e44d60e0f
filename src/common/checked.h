/**
 * @file
 * Overflow-checked 64-bit counts. Cycle, MAC and PE-cycle counters are
 * uint64_t: a shape too large for them fails with an OverflowError that
 * names the count, instead of wrapping (or, for a double converted to
 * an integer, being undefined behaviour).
 */

#ifndef REGATE_COMMON_CHECKED_H
#define REGATE_COMMON_CHECKED_H

#include <cstdint>
#include <string>
#include <utility>

#include "common/error.h"

namespace regate {

/**
 * A count that does not fit in 64 bits. It is a ConfigError: the input
 * asked for more work than the simulator can count.
 */
class OverflowError : public ConfigError
{
  public:
    explicit OverflowError(std::string msg)
        : ConfigError(msg), msg_(std::move(msg))
    {}

    /** The same error, its message prefixed with @p context. */
    OverflowError
    within(const std::string &context) const
    {
        return OverflowError(context + ": " + msg_);
    }

  private:
    std::string msg_;
};

namespace detail {

/** Throw the OverflowError of `what a op b` (out of line: cold). */
[[noreturn]] void throwOverflow(const char *what, std::uint64_t a,
                                const char *op, std::uint64_t b);

/** Throw the OverflowError of `what v`. */
[[noreturn]] void throwOverflow(const char *what, double v);

}  // namespace detail

/** @p a * @p b; OverflowError naming @p what past 64 bits. */
inline std::uint64_t
checkedMul(std::uint64_t a, std::uint64_t b, const char *what)
{
    std::uint64_t r;
    if (__builtin_mul_overflow(a, b, &r)) [[unlikely]]
        detail::throwOverflow(what, a, " x ", b);
    return r;
}

/** @p a + @p b; OverflowError naming @p what past 64 bits. */
inline std::uint64_t
checkedAdd(std::uint64_t a, std::uint64_t b, const char *what)
{
    std::uint64_t r;
    if (__builtin_add_overflow(a, b, &r)) [[unlikely]]
        detail::throwOverflow(what, a, " + ", b);
    return r;
}

/**
 * @p v truncated to uint64_t, as static_cast would; OverflowError
 * naming @p what unless 0 <= v < 2^64 (NaN included).
 */
inline std::uint64_t
checkedCount(double v, const char *what)
{
    if (!(v >= 0.0 && v < 0x1p64)) [[unlikely]]
        detail::throwOverflow(what, v);
    return static_cast<std::uint64_t>(v);
}

}  // namespace regate

#endif  // REGATE_COMMON_CHECKED_H
