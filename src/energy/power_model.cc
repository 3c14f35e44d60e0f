#include "energy/power_model.h"

#include "common/error.h"

namespace regate {
namespace energy {

using arch::Component;

WorkCounters &
WorkCounters::operator+=(const WorkCounters &o)
{
    macs += o.macs;
    vuOps += o.vuOps;
    sramBytes += o.sramBytes;
    hbmBytes += o.hbmBytes;
    iciBytes += o.iciBytes;
    return *this;
}

namespace {

// "Other" static power as a fraction of chip static power. Calibrated:
// the middle of the §3 band (39.1%-45.8%), which
// PowerModel.StaticSharesWithinPaperBands checks on NPU-D.
constexpr double kOtherStaticShare = 0.42;

// Control/clock-distribution dynamic overhead attributed to Other, as
// a fraction of the modeled components' dynamic energy. Repo choice:
// McPAT-style clock and control overhead; no band checks it.
constexpr double kOtherDynamicFactor = 0.20;

}  // namespace

PowerModel::PowerModel(const arch::NpuConfig &cfg)
    : cfg_(cfg), area_(cfg)
{
    const auto &tech = arch::techParams(cfg.node);
    const auto &mm2 = area_.baseline().mm2;

    staticW_[Component::Sa] = mm2[Component::Sa] * tech.leakageDensityLogic;
    staticW_[Component::Vu] = mm2[Component::Vu] * tech.leakageDensityLogic;
    staticW_[Component::Sram] =
        mm2[Component::Sram] * tech.leakageDensitySram;
    staticW_[Component::Hbm] =
        mm2[Component::Hbm] * tech.hbmPhyLeakDensity;
    staticW_[Component::Ici] =
        mm2[Component::Ici] * tech.iciPhyLeakDensity;

    double subtotal = staticW_[Component::Sa] + staticW_[Component::Vu] +
                      staticW_[Component::Sram] +
                      staticW_[Component::Hbm] + staticW_[Component::Ici];
    staticW_[Component::Other] =
        subtotal * kOtherStaticShare / (1.0 - kOtherStaticShare);
}

double
PowerModel::staticPower(arch::Component c) const
{
    return staticW_[c];
}

double
PowerModel::totalStaticPower() const
{
    return staticW_.sum();
}

double
PowerModel::saStaticPower() const
{
    return staticW_[Component::Sa] / cfg_.numSa;
}

double
PowerModel::peStaticPower() const
{
    return saStaticPower() / (cfg_.saWidth * cfg_.saWidth);
}

double
PowerModel::vuStaticPower() const
{
    return staticW_[Component::Vu] / cfg_.numVu;
}

double
PowerModel::sramSegmentStaticPower() const
{
    return staticW_[Component::Sram] /
           static_cast<double>(cfg_.sramSegments());
}

double
PowerModel::unitStaticPower(arch::GatedUnit unit) const
{
    switch (unit) {
      case arch::GatedUnit::SaPe:
        return peStaticPower();
      case arch::GatedUnit::SaFull:
        return saStaticPower();
      case arch::GatedUnit::Vu:
        return vuStaticPower();
      case arch::GatedUnit::Hbm:
        return staticW_[Component::Hbm];
      case arch::GatedUnit::Ici:
        return staticW_[Component::Ici];
      case arch::GatedUnit::SramSleep:
      case arch::GatedUnit::SramOff:
        return sramSegmentStaticPower();
    }
    throw LogicError("unknown GatedUnit");
}

arch::ComponentMap<double>
PowerModel::dynamicEnergy(const WorkCounters &work) const
{
    const auto &tech = arch::techParams(cfg_.node);
    arch::ComponentMap<double> e;
    e[Component::Sa] = work.macs * tech.energyPerMac;
    e[Component::Vu] = work.vuOps * tech.energyPerVuOp;
    e[Component::Sram] = work.sramBytes * tech.energyPerSramByte;
    e[Component::Hbm] = work.hbmBytes * tech.energyPerHbmByte;
    e[Component::Ici] = work.iciBytes * tech.energyPerIciByte;
    double subtotal = e[Component::Sa] + e[Component::Vu] +
                      e[Component::Sram] + e[Component::Hbm] +
                      e[Component::Ici];
    e[Component::Other] = subtotal * kOtherDynamicFactor;
    return e;
}

}  // namespace energy
}  // namespace regate
