#include "ici/topology.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.h"

namespace regate {
namespace ici {

Torus::Torus(std::vector<int> dims)
    : dims_(std::move(dims))
{
    REGATE_CHECK(!dims_.empty(), "torus needs at least one dimension");
    for (int d : dims_)
        REGATE_CHECK(d >= 1, "torus dimension must be >= 1, got ", d);
}

Torus
Torus::forChips(const arch::NpuConfig &cfg, int chips)
{
    REGATE_CHECK(chips >= 1, "pod needs at least one chip");
    int rank = cfg.torusDims;

    // Greedy near-regular factorization: repeatedly pull out the
    // largest factor <= the remaining geometric mean.
    std::vector<int> dims(rank, 1);
    int remaining = chips;
    for (int i = 0; i < rank; ++i) {
        int slots = rank - i;
        int target = static_cast<int>(
            std::max(1.0, std::round(std::pow(
                static_cast<double>(remaining), 1.0 / slots))));
        // The largest divisor of `remaining` that is <= target.
        int best = std::min(target, remaining);
        while (remaining % best != 0)
            --best;
        if (i == rank - 1)
            best = remaining;
        dims[i] = best;
        remaining /= best;
    }
    std::sort(dims.begin(), dims.end());
    Torus t(dims);
    REGATE_ASSERT(t.numChips() == chips, "factorization lost chips: ",
                  t.numChips(), " != ", chips);
    return t;
}

int
Torus::numChips() const
{
    int n = 1;
    for (int d : dims_)
        n *= d;
    return n;
}

int
Torus::diameterHops() const
{
    int hops = 0;
    for (int d : dims_)
        hops += d / 2;
    return hops;
}

std::string
Torus::toString() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < dims_.size(); ++i)
        os << (i ? "x" : "") << dims_[i];
    return os.str();
}

}  // namespace ici
}  // namespace regate
