#include "models/registry.h"

#include <algorithm>
#include <cmath>

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

/** The tp-first split of the LLM families: tp up to @p max_tp. */
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

/** The llama tp-first split with the Table-4 dp<=batch fixup. */
Parallelism
llamaAnchorSplit(int chips, std::int64_t batch)
{
    Parallelism par = splitChips(chips, 8);
    // Keep dp <= batch so every replica has work.
    while (par.dp > batch && par.tp < chips) {
        par.tp *= 2;
        par.dp = chips / par.tp;
    }
    return par;
}

/** Canonical spec spelling of a work unit ("iteration", "token"...). */
std::string
workUnitKey(WorkUnit unit)
{
    switch (unit) {
      case WorkUnit::Iteration:
        return "iteration";
      case WorkUnit::Token:
        return "token";
      case WorkUnit::Request:
        return "request";
      case WorkUnit::Image:
        return "image";
    }
    throw LogicError("unknown unit");
}

/** Explicit split if the spec set one, else the row's heuristic. */
RunSetup
anchorSetup(const FamilyRow &row, const ScenarioSpec &spec)
{
    RunSetup s;
    s.chips = spec.chips;
    s.batch = spec.batch;
    if (spec.parSet)
        s.par = spec.par;
    else if (row.tpFirst)
        s.par = llamaAnchorSplit(spec.chips, spec.batch);
    else
        s.par = {spec.chips, 1, 1};
    return s;
}

}  // namespace

void
validateScenario(ScenarioSpec &spec)
{
    const auto &row = familyRow(spec.family);

    // Family-independent invariants first, so every row gets a
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

    row.validate(spec);

    // Family defaults.
    if (spec.seqLen == 0)
        spec.seqLen = row.seqLen;
    if (spec.outLen == 0)
        spec.outLen = row.outLen;
    if (spec.unit.empty())
        spec.unit = workUnitKey(row.unit);
    bool filled = false;
    for (const auto &extra : row.extras) {
        if (extra.fallback != 0 && spec.extraOr(extra.key, 0) == 0) {
            spec.extra.emplace_back(extra.key, extra.fallback);
            filled = true;
        }
    }
    if (filled)
        std::sort(spec.extra.begin(), spec.extra.end());

    // A token-normalized scenario must have a token count.
    REGATE_CHECK(scenarioWorkUnit(spec) != WorkUnit::Token ||
                     spec.seqLen > 0 || spec.outLen > 0,
                 "scenario '", spec.name,
                 "': unit=token needs seq_len or out_len");

    // Every data-parallel replica needs at least one sample, in the
    // anchor setup and in its NPU-D HBM fit (the setup fig17 runs and
    // every SLO target is measured on), which may grow the pod and
    // with it dp.
    auto check_dp = [&](const RunSetup &setup) {
        REGATE_CHECK(setup.par.dp <= spec.batch, "scenario '", spec.name,
                     "': batch ", spec.batch, " too small for dp=",
                     setup.par.dp, " (chips=", setup.chips, ")");
    };
    check_dp(anchorSetup(row, spec));
    check_dp(defaultScenarioSetup(spec, arch::NpuGeneration::D));
}

RunSetup
scenarioSetup(const ScenarioSpec &spec)
{
    return anchorSetup(familyRow(spec.family), spec);
}

RunSetup
defaultScenarioSetup(const ScenarioSpec &spec, arch::NpuGeneration g)
{
    const auto &row = familyRow(spec.family);
    RunSetup s = anchorSetup(row, spec);
    const auto &cfg = arch::npuConfig(g);
    double per_chip_hbm = static_cast<double>(cfg.hbmBytes) * 0.85;
    double state = row.stateBytes(spec);
    double min_chips = std::ceil(state / per_chip_hbm);
    if (min_chips > s.chips) {
        REGATE_CHECK(min_chips <= kMaxChips, "scenario '", spec.name,
                     "': ", state, " bytes of model state need ",
                     min_chips, " ", cfg.name, " chips (at most ",
                     kMaxChips, ")");
        s.chips = roundUpPow2(static_cast<int>(min_chips));
        s.par = row.tpFirst ? splitChips(s.chips, 8)
                            : Parallelism{s.chips, 1, 1};
    }
    return s;
}

graph::OperatorGraph
buildScenarioGraph(const ScenarioSpec &spec, const RunSetup &setup)
{
    return familyRow(spec.family).build(spec, setup);
}

double
scenarioUnitsPerRun(const ScenarioSpec &spec, const RunSetup &setup)
{
    // Fig.2-style normalization: the unit the spec asked for, over the
    // setup's batch.
    switch (scenarioWorkUnit(spec)) {
      case WorkUnit::Iteration:
        return 1.0;
      case WorkUnit::Token:
        return static_cast<double>(setup.batch) *
               static_cast<double>(spec.outLen > 0 ? spec.outLen
                                                   : spec.seqLen);
      case WorkUnit::Request:
      case WorkUnit::Image:
        return static_cast<double>(setup.batch);
    }
    throw LogicError("unknown unit");
}

double
scenarioModelStateBytes(const ScenarioSpec &spec)
{
    return familyRow(spec.family).stateBytes(spec);
}

WorkUnit
scenarioWorkUnit(const ScenarioSpec &spec)
{
    familyRow(spec.family);  // An unknown family wins over the unit.
    for (auto unit : {WorkUnit::Iteration, WorkUnit::Token,
                      WorkUnit::Request, WorkUnit::Image})
        if (spec.unit == workUnitKey(unit))
            return unit;
    throw ConfigError("scenario '" + spec.name + "': unknown unit '" +
                      spec.unit + "'");
}

std::string
scenarioFamilyLabel(const ScenarioSpec &spec)
{
    return familyRow(spec.family).label;
}

}  // namespace models
}  // namespace regate
