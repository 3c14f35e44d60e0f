/**
 * @file
 * NPU pod topology: chips connected by ICI links in a 2D or 3D torus
 * (§2.1), optimized for all-reduce bandwidth [90].
 */

#ifndef REGATE_ICI_TOPOLOGY_H
#define REGATE_ICI_TOPOLOGY_H

#include <vector>

#include "arch/npu_config.h"

namespace regate {
namespace ici {

/** A torus of NPU chips. */
class Torus
{
  public:
    /** Explicit dimensions, e.g. {4, 4} or {2, 2, 4}. */
    explicit Torus(std::vector<int> dims);

    /**
     * Near-regular factorization of @p chips into the generation's
     * torus rank (2D for NPU-A..C, 3D for NPU-D/E).
     */
    static Torus forChips(const arch::NpuConfig &cfg, int chips);

    int numChips() const;
    const std::vector<int> &dims() const { return dims_; }
    int rank() const { return static_cast<int>(dims_.size()); }

    /** Torus diameter in hops (sum of dim/2). */
    int diameterHops() const;

  private:
    std::vector<int> dims_;
};

}  // namespace ici
}  // namespace regate

#endif  // REGATE_ICI_TOPOLOGY_H
