#include "models/registry.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "arch/gating_params.h"
#include "common/error.h"

namespace regate {
namespace models {

namespace {

int
roundUpPow2(int v)
{
    int p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

}  // namespace

Parallelism
splitChips(int chips, int max_tp)
{
    Parallelism par;
    par.tp = std::min(chips, max_tp);
    while (par.tp > 1 && chips % par.tp != 0)
        --par.tp;
    par.dp = chips / par.tp;
    return par;
}

GeneratorRegistry &
GeneratorRegistry::instance()
{
    static GeneratorRegistry registry;
    static std::once_flag builtins;
    std::call_once(builtins,
                   [] { registerBuiltinGenerators(registry); });
    return registry;
}

void
GeneratorRegistry::add(std::unique_ptr<WorkloadGenerator> gen)
{
    REGATE_CHECK(gen, "null generator");
    auto family = gen->family();
    REGATE_CHECK(!gens_.count(family), "workload generator '", family,
                 "' is already registered");
    gens_.emplace(std::move(family), std::move(gen));
}

const WorkloadGenerator *
GeneratorRegistry::find(const std::string &family) const
{
    auto it = gens_.find(family);
    return it == gens_.end() ? nullptr : it->second.get();
}

const WorkloadGenerator &
GeneratorRegistry::require(const std::string &family) const
{
    const auto *gen = find(family);
    if (gen)
        return *gen;
    std::string known;
    for (const auto &[key, value] : gens_) {
        (void)value;
        known += known.empty() ? key : ", " + key;
    }
    throw ConfigError("unknown workload family '" + family +
                      "' (registered: " + known + ")");
}

std::vector<std::string>
GeneratorRegistry::families() const
{
    std::vector<std::string> out;
    for (const auto &[key, value] : gens_) {
        (void)value;
        out.push_back(key);
    }
    return out;  // std::map iteration is already sorted.
}

void
validateScenario(ScenarioSpec &spec)
{
    const auto &gen =
        GeneratorRegistry::instance().require(spec.family);

    // Family-independent invariants first, so every generator gets a
    // structurally sound spec.
    REGATE_CHECK(spec.batch >= 1, "scenario '", spec.name,
                 "': batch is required (>= 1; got ", spec.batch, ")");
    REGATE_CHECK(spec.chips >= 1, "scenario '", spec.name,
                 "': chips is required (>= 1; got ", spec.chips, ")");
    REGATE_CHECK(spec.seqLen >= 0 && spec.outLen >= 0, "scenario '",
                 spec.name, "': negative sequence length");
    if (spec.parSet) {
        spec.par.validate();
        REGATE_CHECK(
            spec.chips == spec.par.chips(), "scenario '", spec.name,
            "': inconsistent parallelism: chips (", spec.chips,
            ") != tp*dp*pp (", spec.par.tp, "*", spec.par.dp, "*",
            spec.par.pp, " = ", spec.par.chips(), ")");
    }
    for (const auto &[key, value] : spec.gating) {
        REGATE_CHECK(key == "logic_off" || key == "sram_sleep" ||
                         key == "sram_off" || key == "delay_scale",
                     "scenario '", spec.name, "': unknown gating key '",
                     key, "'");
        REGATE_CHECK(std::isfinite(value) && value >= 0, "scenario '",
                     spec.name, "': bad ", key, " value");
        REGATE_CHECK(key != "delay_scale" || value > 0, "scenario '",
                     spec.name, "': delay_scale must be > 0");
        // A leakage ratio is a fraction of the active static power.
        REGATE_CHECK(key == "delay_scale" || value <= 1, "scenario '",
                     spec.name, "': ", key, " = ", value,
                     " is not a leakage ratio in [0, 1]");
        REGATE_CHECK(key != "delay_scale" ||
                         arch::GatingParams::delayScaleFits(value),
                     "scenario '", spec.name, "': delay_scale = ", value,
                     " overflows the scaled Table-3 cycle counts");
    }

    gen.validate(spec);
    gen.fillDefaults(spec);

    // A token-normalized scenario must have a token count.
    REGATE_CHECK(gen.workUnit(spec) != WorkUnit::Token ||
                     spec.seqLen > 0 || spec.outLen > 0,
                 "scenario '", spec.name,
                 "': unit=token needs seq_len or out_len");

    // Every data-parallel replica needs at least one sample, in the
    // anchor setup and in its NPU-D HBM fit (the setup fig17 runs and
    // every SLO target is measured on), which may grow the pod and
    // with it dp.
    for (const auto &setup :
         {gen.anchorSetup(spec),
          defaultScenarioSetup(spec, arch::NpuGeneration::D)}) {
        REGATE_CHECK(setup.par.dp <= spec.batch, "scenario '", spec.name,
                     "': batch ", spec.batch, " too small for dp=",
                     setup.par.dp, " (chips=", setup.chips, ")");
    }
}

RunSetup
scenarioSetup(const ScenarioSpec &spec)
{
    return GeneratorRegistry::instance()
        .require(spec.family)
        .anchorSetup(spec);
}

RunSetup
defaultScenarioSetup(const ScenarioSpec &spec, arch::NpuGeneration g)
{
    const auto &gen =
        GeneratorRegistry::instance().require(spec.family);
    RunSetup s = gen.anchorSetup(spec);
    const auto &cfg = arch::npuConfig(g);
    double per_chip_hbm = static_cast<double>(cfg.hbmBytes) * 0.85;
    int min_chips = static_cast<int>(
        std::ceil(gen.modelStateBytes(spec) / per_chip_hbm));
    if (min_chips > s.chips) {
        s.chips = roundUpPow2(min_chips);
        s.par = gen.scaleSplit(spec, s.chips);
    }
    return s;
}

graph::OperatorGraph
buildScenarioGraph(const ScenarioSpec &spec, const RunSetup &setup)
{
    return GeneratorRegistry::instance()
        .require(spec.family)
        .build(spec, setup);
}

double
scenarioUnitsPerRun(const ScenarioSpec &spec, const RunSetup &setup)
{
    return GeneratorRegistry::instance()
        .require(spec.family)
        .unitsPerRun(spec, setup);
}

double
scenarioModelStateBytes(const ScenarioSpec &spec)
{
    return GeneratorRegistry::instance()
        .require(spec.family)
        .modelStateBytes(spec);
}

WorkUnit
scenarioWorkUnit(const ScenarioSpec &spec)
{
    return GeneratorRegistry::instance()
        .require(spec.family)
        .workUnit(spec);
}

std::string
scenarioFamilyLabel(const ScenarioSpec &spec)
{
    return GeneratorRegistry::instance()
        .require(spec.family)
        .familyLabel();
}

}  // namespace models
}  // namespace regate
