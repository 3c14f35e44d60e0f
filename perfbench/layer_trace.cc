/**
 * @file
 * In-process layer tracer of the benchmark (perfbench/run.py drives
 * it). It calls each simulator layer's public functions, with a span
 * at every layer boundary, and reports where the time goes:
 *
 *   layer_trace render SPEC
 *       Print fig17_energy_savings' output for SPEC, simulated
 *       serially through compiler::compileGraph and sim::Engine::run
 *       with memoization off: the reference a sweep's stdout must
 *       match when no digest is recorded for its seed.
 *
 *   layer_trace trace paper_suite|sweep SPEC OUTDIR
 *       Replay the workload case by case: graph build, fusion,
 *       tiling, per-operator simulation, timeline composition and
 *       policy evaluation, each in its own span. Then time the whole
 *       engine (memo off), the cold memoized path, the SLO search,
 *       the parallel sweep runner, the energy/carbon accessors and
 *       the figure rendering. Writes OUTDIR/spans.tsv (one span per
 *       line: name, start_ns, end_ns, parent index), OUTDIR/summary.json
 *       (counts) and OUTDIR/figure.txt (the rendered figure: fig02 for
 *       paper_suite, fig17 for a sweep).
 *
 * The replay is checked against the library: each case's composed
 * timelines (ActivityTimeline::operator==) and per-policy energies must
 * equal what Engine::run returns for the same compiled graph; every
 * difference is counted in summary.json as a replay mismatch.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "arch/npu_config.h"
#include "carbon/carbon_model.h"
#include "carbon/lifespan.h"
#include "common/table.h"
#include "compiler/compiler.h"
#include "core/gating_engine.h"
#include "ici/collective.h"
#include "ici/topology.h"
#include "isa/vliw_core.h"
#include "models/registry.h"
#include "models/spec.h"
#include "models/workload.h"
#include "sim/engine.h"
#include "sim/report.h"
#include "sim/slo.h"
#include "sim/sweep.h"

namespace {

using namespace regate;
using arch::Component;
using sim::Policy;

constexpr Component kGated[] = {Component::Sa, Component::Vu,
                                Component::Hbm, Component::Ici};

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Spans kept in memory and written when the run ends. Names are
 * string literals; a span's parent is the span open when it began.
 */
class SpanLog
{
  public:
    void
    begin(const char *name)
    {
        int parent = parentIndex();
        open_.push_back(static_cast<int>(spans_.size()));
        spans_.push_back({name, nowNs(), 0, parent});
    }

    void
    end()
    {
        spans_[open_.back()].end = nowNs();
        open_.pop_back();
    }

    /** A finished span under the currently open one. */
    void
    add(const char *name, std::int64_t start, std::int64_t end)
    {
        spans_.push_back({name, start, end, parentIndex()});
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        std::int64_t origin = spans_.empty() ? 0 : spans_[0].start;
        out << "# name\tstart_ns\tend_ns\tparent\n";
        for (const auto &s : spans_)
            out << s.name << '\t' << s.start - origin << '\t'
                << s.end - origin << '\t' << s.parent << '\n';
        REGATE_CHECK(out.good(), "cannot write ", path);
    }

  private:
    struct Span
    {
        const char *name;
        std::int64_t start;
        std::int64_t end;
        int parent;
    };

    int parentIndex() const { return open_.empty() ? -1 : open_.back(); }

    std::vector<Span> spans_;
    std::vector<int> open_;
};

SpanLog g_spans;

/** RAII span. */
class Scope
{
  public:
    explicit Scope(const char *name) { g_spans.begin(name); }
    ~Scope() { g_spans.end(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
};

template <typename Fn>
auto
timed(const char *name, Fn &&fn)
{
    Scope span(name);
    return fn();
}

const char *
opsimSpanName(Component bottleneck)
{
    switch (bottleneck) {
      case Component::Sa:
        return "opsim.sa";
      case Component::Vu:
        return "opsim.vu";
      case Component::Hbm:
        return "opsim.hbm";
      case Component::Ici:
        return "opsim.ici";
      default:
        return "opsim.other";
    }
}

/** Counts gathered while replaying; written to summary.json. */
struct Counters
{
    std::uint64_t cases = 0;
    std::uint64_t failedCases = 0;
    std::uint64_t ops = 0;
    std::uint64_t gapGroups = 0;
    std::uint64_t policyEvals = 0;
    std::uint64_t sloCandidates = 0;
    std::uint64_t replayMismatches = 0;
    std::unordered_set<std::string> shapes;
    std::unordered_set<std::string> graphs;
};

template <typename T>
void
appendBytes(std::string &key, const T &value)
{
    key.append(reinterpret_cast<const char *>(&value), sizeof value);
}

/**
 * Identity of an operator's simulated work, from its public fields
 * (the name is a label): two operators with equal keys on one chip
 * generation and pod size simulate identically.
 */
std::string
shapeKey(arch::NpuGeneration gen, int pod, const graph::Operator &op)
{
    std::string key;
    appendBytes(key, gen);
    appendBytes(key, pod);
    appendBytes(key, op.kind);
    appendBytes(key, op.batch);
    appendBytes(key, op.m);
    appendBytes(key, op.k);
    appendBytes(key, op.n);
    appendBytes(key, op.vuOps);
    appendBytes(key, op.hbmReadBytes);
    appendBytes(key, op.hbmWriteBytes);
    appendBytes(key, op.coll);
    appendBytes(key, op.collBytes);
    appendBytes(key, op.lookups);
    appendBytes(key, op.bytesPerLookup);
    appendBytes(key, op.fusedIntoPrev);
    appendBytes(key, op.sramDemandBytes);
    appendBytes(key, op.mapToVu);
    return key;
}

/** The setup a case runs with (its override, or the default). */
models::RunSetup
setupOf(const sim::SweepCase &c)
{
    if (c.hasSetup)
        return c.setup;
    return c.scenario ? models::defaultScenarioSetup(*c.scenario, c.gen)
                      : models::defaultSetup(c.workload, c.gen);
}

/**
 * Identity of a case's operator graph: everything the graph builder
 * reads. Gating overrides and the display name are left out; they
 * change the evaluation, not the graph.
 */
std::string
graphKey(const sim::SweepCase &c, const models::RunSetup &s)
{
    std::ostringstream key;
    if (c.scenario) {
        const auto &spec = *c.scenario;
        key << spec.family << '|' << spec.model << '|' << spec.seqLen
            << '|' << spec.outLen;
        for (const auto &[k, v] : spec.extra)
            key << '|' << k << '=' << v;
    } else {
        key << models::workloadName(c.workload);
    }
    key << '|' << arch::generationName(c.gen) << '|' << s.chips << '|'
        << s.batch << '|' << s.par.dp << '|' << s.par.tp << '|'
        << s.par.pp;
    return key.str();
}

graph::OperatorGraph
buildCase(const sim::SweepCase &c, const models::RunSetup &setup)
{
    return c.scenario ? models::buildScenarioGraph(*c.scenario, setup)
                      : models::buildGraph(c.workload, setup);
}

/** The memoized library path a figure binary takes for one case. */
sim::WorkloadReport
simulateCase(const sim::SweepCase &c)
{
    const models::RunSetup *setup = c.hasSetup ? &c.setup : nullptr;
    return c.scenario
               ? sim::simulateScenario(c.scenario, c.gen, c.params, setup)
               : sim::simulateWorkload(c.workload, c.gen, c.params,
                                       setup);
}

std::string
caseName(const sim::SweepCase &c)
{
    return c.scenario ? c.scenario->name
                      : models::workloadName(c.workload);
}

// ---- Engine replay -------------------------------------------------

/** What the replay composes for one run. */
struct Replayed
{
    arch::ComponentMap<core::ActivityTimeline> timeline;
    energy::WorkCounters work;
    sa::SaTileStats saStats;
    double sramUsedIntegral = 0;
    Cycles cycles = 0;
};

/**
 * Engine::run's operator simulation and timeline composition, phase
 * by phase per block: one span per simulated operator (named by its
 * bottleneck component), then one span composing the block.
 */
Replayed
replayCompose(const graph::OperatorGraph &graph, int pod,
              arch::NpuGeneration gen, Counters &counters)
{
    const auto &cfg = arch::npuConfig(gen);
    ici::Torus torus = ici::Torus::forChips(cfg, pod);
    ici::CollectiveModel coll(cfg, torus);
    sim::OperatorSimulator op_sim(cfg, coll);

    Replayed r;
    std::vector<sim::OpExecution> exs;
    for (const auto &block : graph.blocks) {
        exs.clear();
        exs.reserve(block.ops.size());
        {
            Scope span("opsim");
            std::int64_t t = nowNs();
            for (const auto &op : block.ops) {
                exs.push_back(op_sim.simulate(op));
                std::int64_t t2 = nowNs();
                g_spans.add(opsimSpanName(exs.back().bottleneck), t, t2);
                t = t2;
            }
        }
        {
            Scope span("core.compose");
            arch::ComponentMap<core::ActivityTimeline> block_tl;
            for (const auto &ex : exs)
                for (auto c : kGated)
                    block_tl[c].append(ex.timeline[c]);
            for (auto c : kGated)
                r.timeline[c].append(block_tl[c].repeated(block.repeat));
        }

        energy::WorkCounters work;
        sa::SaTileStats sa;
        double sram_integral = 0;
        Cycles dur = 0;
        for (const auto &ex : exs) {
            work += ex.work;
            sa += ex.saStats;
            sram_integral += static_cast<double>(ex.duration) *
                             (ex.sramUsedBytes /
                              static_cast<double>(cfg.sramBytes));
            dur += ex.duration;
        }
        double rep = static_cast<double>(block.repeat);
        r.work.macs += work.macs * rep;
        r.work.vuOps += work.vuOps * rep;
        r.work.sramBytes += work.sramBytes * rep;
        r.work.hbmBytes += work.hbmBytes * rep;
        r.work.iciBytes += work.iciBytes * rep;
        r.saStats += sa.scaled(block.repeat);
        r.sramUsedIntegral += sram_integral * rep;
        r.cycles += dur * block.repeat;

        counters.ops += block.ops.size();
        for (const auto &op : block.ops)
            counters.shapes.insert(shapeKey(gen, pod, op));
    }
    for (auto c : kGated)
        counters.gapGroups += r.timeline[c].gaps().size();
    return r;
}

core::GatingMode
modeFor(Policy policy, Component c)
{
    if (policy == Policy::NoPG)
        return core::GatingMode::None;
    if (policy == Policy::Ideal)
        return core::GatingMode::Ideal;
    if (c == Component::Vu && policy == Policy::Full)
        return core::GatingMode::SwExact;
    return core::GatingMode::HwDetect;
}

/**
 * Engine::evaluatePolicy's energy accounting over the replayed
 * timelines, one span per policy around its evaluateTimeline calls.
 * The wake-up overhead cycles are taken from @p run: they come from
 * the engine's per-block usage bookkeeping, which the replay leaves
 * to sim.engine_self_s.
 */
energy::EnergyBreakdown
replayPolicy(const Replayed &r, const sim::WorkloadRun &run,
             Policy policy, const sim::Engine &engine,
             Counters &counters)
{
    const auto &power = engine.powerModel();
    const auto &params = engine.params();
    const auto &ratios = params.ratios();
    const double tau = engine.config().cycleTime();
    const core::UnitSpec specs[] = {
        {arch::GatedUnit::SaFull, power.staticPower(Component::Sa), tau},
        {arch::GatedUnit::Vu, power.staticPower(Component::Vu), tau},
        {arch::GatedUnit::Hbm, power.hbmStaticPower(), tau},
        {arch::GatedUnit::Ici, power.iciStaticPower(), tau},
    };

    core::GatingResult g[4];
    {
        Scope span("core.policy_eval");
        for (int i = 0; i < 4; ++i)
            g[i] = core::evaluateTimeline(r.timeline[kGated[i]],
                                          specs[i],
                                          modeFor(policy, kGated[i]),
                                          params);
    }
    counters.policyEvals += 4;

    energy::EnergyBreakdown e;
    double e_sa = g[0].staticEnergy;
    if (policy == Policy::HW || policy == Policy::Full ||
        policy == Policy::Ideal) {
        double flat = power.staticPower(Component::Sa) * tau *
                      static_cast<double>(
                          r.timeline[Component::Sa].activeCycles());
        double off_leak = policy == Policy::Ideal ? 0.0 : ratios.logicOff;
        double gated =
            power.peStaticPower() * tau *
            (static_cast<double>(r.saStats.peOnCycles) +
             sa::kWOnPowerFraction *
                 static_cast<double>(r.saStats.peWOnCycles) +
             off_leak * static_cast<double>(r.saStats.peOffCycles));
        if (gated < flat)
            e_sa += gated - flat;
    }
    e.staticJ[Component::Sa] = e_sa;
    e.staticJ[Component::Vu] = g[1].staticEnergy;
    e.staticJ[Component::Hbm] = g[2].staticEnergy;
    e.staticJ[Component::Ici] = g[3].staticEnergy;

    double leak = policy == Policy::NoPG ? 1.0
                  : policy == Policy::Ideal ? 0.0
                  : policy == Policy::Full ? ratios.sramOff
                                           : ratios.sramSleep;
    double used = r.sramUsedIntegral;
    double unused = static_cast<double>(r.cycles) - used;
    e.staticJ[Component::Sram] = power.staticPower(Component::Sram) *
                                 tau * (used + leak * unused);
    e.staticJ[Component::Other] = power.staticPower(Component::Other) *
                                  tau * static_cast<double>(r.cycles);
    e.dynamicJ = power.dynamicEnergy(r.work);

    Cycles overhead = run.result(policy).overheadCycles;
    if (overhead > 0 && r.cycles > 0) {
        double avg_static_w =
            e.staticJ.sum() / (static_cast<double>(r.cycles) * tau);
        e.staticJ[Component::Other] +=
            avg_static_w * static_cast<double>(overhead) * tau;
    }
    return e;
}

/** Count every field where the replay and Engine::run differ. */
std::uint64_t
mismatches(const Replayed &r,
           const std::array<energy::EnergyBreakdown, sim::kNumPolicies>
               &energies,
           const sim::WorkloadRun &run)
{
    std::uint64_t n = 0;
    for (auto c : kGated)
        n += !(r.timeline[c] == run.timeline[c]);
    n += r.cycles != run.cycles;
    for (auto p : sim::allPolicies()) {
        const auto &want = run.result(p).energy;
        const auto &got = energies[static_cast<std::size_t>(p)];
        for (auto c : arch::kAllComponents) {
            n += got.staticJ[c] != want.staticJ[c];
            n += got.dynamicJ[c] != want.dynamicJ[c];
        }
    }
    return n;
}

/**
 * One case through every layer: build, compile (fusion, tiling), the
 * engine replay, and the real Engine::run with memoization off.
 */
sim::WorkloadRun
traceCase(const sim::SweepCase &c, Counters &counters)
{
    Scope case_span("case");
    models::RunSetup setup = setupOf(c);
    const auto &cfg = arch::npuConfig(c.gen);
    counters.graphs.insert(graphKey(c, setup));

    auto built = timed("models.build", [&] { return buildCase(c, setup); });
    graph::OperatorGraph graph;
    {
        Scope span("compiler");
        graph = built;
        graph.validate();
        timed("compiler.fuse",
              [&] { return compiler::fuseGraph(graph, cfg.sramBytes); });
        timed("compiler.tile",
              [&] { return compiler::tileGraph(graph, cfg); });
    }

    sim::Engine engine(cfg, c.params);
    engine.setMemoization(false);
    auto run = timed("sim.engine",
                     [&] { return engine.run(graph, setup.chips); });

    std::array<energy::EnergyBreakdown, sim::kNumPolicies> energies;
    Replayed r;
    {
        Scope span("engine.replay");
        r = replayCompose(graph, setup.chips, c.gen, counters);
        for (auto p : sim::allPolicies())
            energies[static_cast<std::size_t>(p)] =
                replayPolicy(r, run, p, engine, counters);
    }
    counters.replayMismatches += mismatches(r, energies, run);
    ++counters.cases;
    return run;
}

// ---- Figures -------------------------------------------------------

void
banner(std::ostream &os, const std::string &artifact,
       const std::string &caption)
{
    const std::string rule(60, '=');
    os << rule << "\n" << artifact << ": " << caption << "\n"
       << rule << "\n";
}

/** The numbers one fig17 row prints. */
struct Fig17Row
{
    std::string name;
    double saving[4] = {};      ///< Base, HW, Full, Ideal vs NoPG.
    double compSaving[5] = {};  ///< Full's SA, VU, SRAM, ICI, HBM.
};

Fig17Row
fig17Row(const std::string &name, const sim::WorkloadRun &run)
{
    Fig17Row row;
    row.name = name;
    const Policy policies[] = {Policy::Base, Policy::HW, Policy::Full,
                               Policy::Ideal};
    for (int i = 0; i < 4; ++i)
        row.saving[i] = run.savingVsNoPg(policies[i]);
    double nopg = run.result(Policy::NoPG).energy.busyTotal();
    const Component comps[] = {Component::Sa, Component::Vu,
                               Component::Sram, Component::Ici,
                               Component::Hbm};
    for (int i = 0; i < 5; ++i)
        row.compSaving[i] =
            (run.result(Policy::NoPG).energy.staticJ[comps[i]] -
             run.result(Policy::Full).energy.staticJ[comps[i]]) /
            nopg;
    return row;
}

/** fig17_energy_savings' stdout for @p rows. */
std::string
renderFig17(const std::vector<Fig17Row> &rows)
{
    std::ostringstream os;
    banner(os, "Figure 17", "energy savings vs NoPG (NPU-D, busy energy)");
    TablePrinter t({"Workload", "Base", "HW", "Full", "Ideal", "Full:SA",
                    "Full:VU", "Full:SRAM", "Full:ICI", "Full:HBM"});
    double sum_full = 0;
    for (const auto &row : rows) {
        sum_full += row.saving[2];
        std::vector<std::string> cells{row.name};
        for (double s : row.saving)
            cells.push_back(TablePrinter::pct(s, 1));
        for (double s : row.compSaving)
            cells.push_back(TablePrinter::pct(s, 1));
        t.addRow(std::move(cells));
    }
    t.print(os);
    os << "Suite average (Full): "
       << TablePrinter::pct(sum_full / static_cast<double>(rows.size()), 1)
       << "  (paper: 8.5%-32.8%, average 15.5%)\n";
    return os.str();
}

/** fig02_energy_efficiency's stdout for the paper grid's results. */
std::string
renderFig02(const std::vector<models::Workload> &workloads,
            const std::vector<arch::NpuGeneration> &gens,
            const std::vector<sim::SloResult> &results)
{
    std::ostringstream os;
    banner(os, "Figure 2",
           "energy efficiency across NPU generations "
           "(NoPG, duty cycle 60%, PUE 1.1)");
    std::size_t idx = 0;
    for (std::size_t i = 0; i < workloads.size();) {
        auto family =
            models::workloadFamilyName(models::familyOf(workloads[i]));
        os << "\n-- " << family << " --\n";
        TablePrinter t({"Workload", "Gen", "Chips", "SLO", "J/unit",
                        "Unit"});
        for (; i < workloads.size() &&
               models::workloadFamilyName(
                   models::familyOf(workloads[i])) == family;
             ++i) {
            for (std::size_t g = 0; g < gens.size(); ++g) {
                const auto &res = results.at(idx++);
                t.addRow({models::workloadName(workloads[i]),
                          arch::generationName(res.report.gen),
                          std::to_string(res.setup.chips),
                          TablePrinter::fmt(res.sloRatio, 0) + "x",
                          TablePrinter::eng(res.energyPerUnit, 3),
                          models::workUnitName(
                              models::workUnitOf(workloads[i]))});
            }
            t.addSeparator();
        }
        t.print(os);
    }
    return os.str();
}

// ---- Passes shared by both workloads --------------------------------

/** Cold memoized simulation of every case, serially (a sweep's work
 *  with one thread). */
std::vector<sim::WorkloadReport>
memoPass(const std::vector<sim::SweepCase> &cases)
{
    sim::clearSharedCaches();
    Scope span("pass.memo");
    std::vector<sim::WorkloadReport> reports;
    reports.reserve(cases.size());
    for (const auto &c : cases)
        reports.push_back(simulateCase(c));
    return reports;
}

/** Cold SLO search of each case (fig02's per-case call). */
std::vector<sim::SloResult>
sloPass(const std::vector<sim::SweepCase> &cases, Counters &counters)
{
    sim::clearSharedCaches();
    Scope span("pass.slo");
    std::vector<sim::SloResult> results;
    for (const auto &c : cases) {
        Scope search("sim.slo_search");
        if (c.scenario) {
            results.push_back(
                sim::findBestSetup(c.scenario, c.gen, c.params));
            counters.sloCandidates +=
                sim::candidateSetups(*c.scenario, c.gen).size();
        } else {
            results.push_back(
                sim::findBestSetup(c.workload, c.gen, c.params));
            counters.sloCandidates +=
                sim::candidateSetups(c.workload, c.gen).size();
        }
    }
    return results;
}

/** The WorkloadReport energy accessors the figures read. */
void
energyPass(const std::vector<const sim::WorkloadReport *> &reports)
{
    Scope span("energy.report");
    for (const auto *rep : reports) {
        for (auto p : sim::allPolicies()) {
            (void)rep->podBusyEnergy(p);
            (void)rep->podTotalEnergy(p);
            (void)rep->energyPerUnit(p);
            (void)rep->idleShare(p);
            (void)rep->idlePowerW(p);
        }
    }
}

/** fig15's compiler-instrumented VLIW kernel. */
void
kernelPass()
{
    isa::VliwCoreConfig core_cfg;
    core_cfg.numSa = 2;
    core_cfg.numVu = 2;
    core_cfg.vuWakeDelay = 2;
    compiler::KernelSpec spec;
    spec.tiles = 16;
    spec.popCycles = 100;
    spec.vuOpsPerTile = 2;
    timed("compiler.kernel", [&] {
        return compiler::compileKernel(spec, core_cfg,
                                       arch::GatingParams{});
    });
}

/** OUTDIR/spans.tsv, summary.json (the counts) and figure.txt. */
void
writeOutputs(const std::string &outdir, const Counters &c,
             const std::string &figure)
{
    g_spans.write(outdir + "/spans.tsv");
    std::ofstream out(outdir + "/summary.json");
    out << "{\"cases\": " << c.cases
        << ", \"failed_cases\": " << c.failedCases
        << ", \"ops\": " << c.ops
        << ", \"distinct_shapes\": " << c.shapes.size()
        << ", \"distinct_graphs\": " << c.graphs.size()
        << ", \"gap_groups\": " << c.gapGroups
        << ", \"policy_evals\": " << c.policyEvals
        << ", \"slo_candidates\": " << c.sloCandidates
        << ", \"replay_mismatches\": " << c.replayMismatches << "}\n";
    std::ofstream fig(outdir + "/figure.txt", std::ios::binary);
    fig << figure;
    REGATE_CHECK(out.good() && fig.good(), "cannot write to ", outdir);
}

/** Replay each case; a case that throws is counted, not fatal. */
std::vector<sim::WorkloadRun>
traceCases(const std::vector<sim::SweepCase> &cases, Counters &counters)
{
    std::vector<sim::WorkloadRun> runs;
    runs.reserve(cases.size());
    for (const auto &c : cases) {
        try {
            runs.push_back(traceCase(c, counters));
        } catch (const std::exception &e) {
            std::cerr << "layer_trace: case " << caseName(c) << ": "
                      << e.what() << "\n";
            ++counters.failedCases;
            runs.emplace_back();
        }
    }
    return runs;
}

// ---- Workloads -----------------------------------------------------

/**
 * A sweep: every spec scenario on NPU-D, as fig17_energy_savings
 * runs it.
 */
void
traceSweep(const std::string &spec_path, const std::string &outdir)
{
    Counters counters;
    std::vector<sim::SweepCase> cases;
    std::string figure;
    {
        Scope root("replay");
        auto file = timed("models.spec_parse",
                          [&] { return models::parseSpecFile(spec_path); });
        for (const auto &spec : file.scenarios)
            cases.push_back(
                sim::scenarioCase(spec, arch::NpuGeneration::D));
        auto runs = traceCases(cases, counters);
        Scope render("render.table");
        std::vector<Fig17Row> rows;
        rows.reserve(cases.size());
        for (std::size_t i = 0; i < cases.size(); ++i)
            rows.push_back(fig17Row(caseName(cases[i]), runs[i]));
        figure = renderFig17(rows);
    }

    auto reports = memoPass(cases);
    {
        sim::clearSharedCaches();
        sim::SweepRunner runner;
        Scope span("pass.parallel");
        runner.run(cases);
    }
    // fig02's search over the first cases, as `fig02 --spec` would
    // run them.
    auto searched = std::min<std::size_t>(5, cases.size());
    sloPass({cases.begin(), cases.begin() + searched}, counters);

    std::vector<const sim::WorkloadReport *> ptrs;
    for (const auto &rep : reports)
        ptrs.push_back(&rep);
    energyPass(ptrs);
    {
        Scope span("carbon");
        for (const auto *rep : ptrs) {
            for (auto p : {Policy::Base, Policy::HW, Policy::Full,
                           Policy::Ideal}) {
                (void)carbon::operationalCarbonReduction(*rep, p);
                (void)carbon::operationalCarbonPerUnit(*rep, p);
            }
        }
    }
    kernelPass();
    writeOutputs(outdir, counters, figure);
}

/**
 * The paper suite's SLO search (fig02 and table4 are ~40% of a suite
 * pass): every candidate setup fig02's 17x4 search simulates is
 * replayed, plus the 1x-SLO target run of each workload; then the
 * search itself, fig24/fig25's carbon calls and fig15's kernel
 * compile.
 */
void
tracePaperSuite(const std::string &spec_path, const std::string &outdir)
{
    Counters counters;
    const auto &workloads = models::allWorkloads();
    std::vector<arch::NpuGeneration> gens = {
        arch::NpuGeneration::A, arch::NpuGeneration::B,
        arch::NpuGeneration::C, arch::NpuGeneration::D};
    auto grid = sim::makeGrid(workloads, gens);

    std::vector<sim::SweepCase> cases;
    for (auto w : workloads) {
        sim::SweepCase target;
        target.workload = w;
        target.gen = arch::NpuGeneration::D;
        cases.push_back(target);
        for (auto gen : gens) {
            for (const auto &setup : sim::candidateSetups(w, gen)) {
                sim::SweepCase c = target;
                c.gen = gen;
                c.hasSetup = true;
                c.setup = setup;
                cases.push_back(c);
            }
        }
    }

    auto results = sloPass(grid, counters);
    std::string figure;
    {
        Scope root("replay");
        timed("models.spec_parse",
              [&] { return models::parseSpecFile(spec_path); });
        traceCases(cases, counters);
        Scope render("render.table");
        figure = renderFig02(workloads, gens, results);
    }
    memoPass(cases);
    {
        sim::clearSharedCaches();
        Scope span("pass.slo_serial");
        for (const auto &c : grid)
            sim::findBestSetupSerial(c.workload, c.gen, c.params);
    }
    {
        sim::clearSharedCaches();
        sim::SweepRunner runner;
        Scope span("pass.parallel");
        runner.search(grid);
    }

    std::vector<const sim::WorkloadReport *> ptrs;
    for (const auto &res : results)
        ptrs.push_back(&res.report);
    energyPass(ptrs);

    std::vector<sim::WorkloadReport> sens;
    for (auto w : {models::Workload::Train405B, models::Workload::Prefill405B,
                   models::Workload::Decode405B, models::Workload::DlrmL,
                   models::Workload::DiTXL})
        sens.push_back(sim::simulateWorkload(w, arch::NpuGeneration::D));
    {
        Scope span("carbon");
        for (const auto &rep : sens) {
            for (auto p : {Policy::Base, Policy::HW, Policy::Full,
                           Policy::Ideal})
                (void)carbon::operationalCarbonReduction(rep, p);
            double factor = carbon::annualEfficiencyFactor(rep.workload);
            (void)carbon::analyzeLifespan(rep, Policy::NoPG, factor);
            (void)carbon::analyzeLifespan(rep, Policy::Full, factor);
        }
    }
    kernelPass();
    writeOutputs(outdir, counters, figure);
}

/** fig17's output for @p spec_path from the uncached library path. */
void
renderSweep(const std::string &spec_path)
{
    auto file = models::parseSpecFile(spec_path);
    std::vector<Fig17Row> rows;
    for (const auto &spec : file.scenarios) {
        auto c = sim::scenarioCase(spec, arch::NpuGeneration::D);
        auto setup = setupOf(c);
        const auto &cfg = arch::npuConfig(c.gen);
        auto compiled = compiler::compileGraph(buildCase(c, setup), cfg);
        sim::Engine engine(cfg, c.params);
        engine.setMemoization(false);
        rows.push_back(
            fig17Row(caseName(c), engine.run(compiled.graph, setup.chips)));
    }
    std::cout << renderFig17(rows);
}

int
usage()
{
    std::cerr << "usage: layer_trace render SPEC\n"
                 "       layer_trace trace paper_suite|sweep SPEC OUTDIR\n";
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    try {
        if (args.size() == 2 && args[0] == "render") {
            renderSweep(args[1]);
            return 0;
        }
        if (args.size() == 4 && args[0] == "trace") {
            if (args[1] == "paper_suite")
                tracePaperSuite(args[2], args[3]);
            else if (args[1] == "sweep")
                traceSweep(args[2], args[3]);
            else
                return usage();
            return 0;
        }
    } catch (const std::exception &e) {
        std::cerr << "layer_trace: " << e.what() << "\n";
        return 1;
    }
    return usage();
}
