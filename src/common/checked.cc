#include "common/checked.h"

namespace regate {
namespace detail {

void
throwOverflow(const char *what, std::uint64_t a, const char *op,
              std::uint64_t b)
{
    throw OverflowError(
        concat(what, " ", a, op, b, " does not fit in 64 bits"));
}

void
throwOverflow(const char *what, double v)
{
    throw OverflowError(concat(what, " ", v, " does not fit in 64 bits"));
}

}  // namespace detail
}  // namespace regate
