#include "models/scenario.h"

namespace regate {
namespace models {

std::int64_t
ScenarioSpec::extraOr(const std::string &key,
                      std::int64_t fallback) const
{
    for (const auto &[k, v] : extra)
        if (k == key)
            return v;
    return fallback;
}

}  // namespace models
}  // namespace regate
