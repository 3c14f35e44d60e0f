/**
 * @file
 * The core chip components tracked by the study (§3): systolic arrays,
 * vector units, on-chip SRAM, HBM controller & PHY, ICI controller &
 * PHY, and "other" (chip management, control, PCIe, misc datapaths,
 * which the paper explicitly does not power-gate).
 */

#ifndef REGATE_ARCH_COMPONENT_H
#define REGATE_ARCH_COMPONENT_H

#include <array>
#include <cstddef>
#include <string>

namespace regate {
namespace arch {

/** Core components of an NPU chip. */
enum class Component { Sa, Vu, Sram, Hbm, Ici, Other };

/** Number of Component values. */
constexpr std::size_t kNumComponents = 6;

/** All components, in display order. */
constexpr std::array<Component, kNumComponents> kAllComponents = {
    Component::Sa,  Component::Vu,  Component::Sram,
    Component::Hbm, Component::Ici, Component::Other,
};

/** Printable component name. */
inline std::string
componentName(Component c)
{
    switch (c) {
      case Component::Sa:
        return "SA";
      case Component::Vu:
        return "VU";
      case Component::Sram:
        return "SRAM";
      case Component::Hbm:
        return "HBM";
      case Component::Ici:
        return "ICI";
      case Component::Other:
        return "Other";
    }
    return "?";
}

/** Index of a component, for array storage. */
constexpr std::size_t
componentIndex(Component c)
{
    return static_cast<std::size_t>(c);
}

/**
 * Fixed-size map from Component to T; zero-initialized. Convenience
 * container used by the power/energy bookkeeping.
 */
template <typename T>
class ComponentMap
{
  public:
    T &operator[](Component c) { return data_[componentIndex(c)]; }

    const T &
    operator[](Component c) const
    {
        return data_[componentIndex(c)];
    }

    /** Sum over all components (requires T to support +). */
    T
    sum() const
    {
        T s{};
        for (const auto &v : data_)
            s = s + v;
        return s;
    }

  private:
    std::array<T, kNumComponents> data_{};
};

}  // namespace arch
}  // namespace regate

#endif  // REGATE_ARCH_COMPONENT_H
