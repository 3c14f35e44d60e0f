/**
 * @file
 * Shared helpers for the figure/table regeneration benches. Each
 * bench binary prints the rows/series of one paper artifact so the
 * output can be compared side by side with the paper (shape, not
 * absolute numbers -- see EXPERIMENTS.md).
 *
 * Every binary is one in-process run. Grid binaries (those that
 * sweep workloads x generations) take three optional flags, parsed by
 * initBench: `--spec FILE` replaces the default workload axis,
 * `--list-generators` prints the spec vocabulary, and
 * `--trace-out FILE` records a Chrome/Perfetto timeline. Binaries
 * without a grid call initBenchNoGrid and take no arguments.
 * Exit status: 0 = success, 1 = runtime/config failure (message on
 * stderr; an SLO search that fails for one case prints an error row
 * and the rest of the artifact first), 2 = usage error.
 */

#ifndef REGATE_BENCH_BENCH_UTIL_H
#define REGATE_BENCH_BENCH_UTIL_H

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/table.h"
#include "models/registry.h"
#include "models/spec.h"
#include "obs/trace.h"
#include "sim/report.h"
#include "sim/slo.h"
#include "sim/sweep.h"

namespace regate {
namespace bench {

/**
 * The shared sweep runner used by the figure binaries. One pool per
 * process; worker count follows REGATE_THREADS / hardware
 * concurrency. Results are deterministic (input-ordered) regardless
 * of the worker count.
 */
inline sim::SweepRunner &
sweeper()
{
    static sim::SweepRunner runner;
    return runner;
}

/** The grid binaries' command line (see the file comment). */
struct BenchCli
{
    /**
     * `--spec FILE`: the user-defined scenarios that replace the
     * binary's default workload axis (workloadAxis).
     */
    std::string specPath;
    std::vector<std::shared_ptr<const models::ScenarioSpec>> scenarios;

    /**
     * `--trace-out FILE`: record the run as Chrome/Perfetto
     * trace-event JSON (obs/trace.h) — one span per grid, graph
     * build/compile and engine phases.
     */
    std::string traceOut;

    bool hasSpec() const { return !scenarios.empty(); }
};

inline BenchCli &
benchCli()
{
    static BenchCli cli;
    return cli;
}

/**
 * `--list-generators`: print every registered workload generator and
 * the spec keys it accepts, then exit 0. The output is the reference
 * for writing `--spec` files (and the smoke test that the registry
 * self-registration ran).
 */
inline void
listGeneratorsAndExit()
{
    const auto &registry = models::GeneratorRegistry::instance();
    for (const auto &family : registry.families()) {
        const auto *gen = registry.find(family);
        std::cout << family << " — " << gen->familyLabel() << "\n";
        for (const auto &key : gen->specKeys())
            std::cout << "  " << key.key << ": " << key.doc << "\n";
    }
    std::exit(0);
}

/**
 * Parse the shared bench CLI (see BenchCli). Call first thing in
 * main(); exits with code 2 and a usage message on a bad command
 * line.
 */
inline void
initBench(int argc, char **argv)
{
    auto &cli = benchCli();
    auto usage = [&](const std::string &msg) {
        std::cerr << argv[0] << ": " << msg << "\n"
                  << "usage: " << argv[0]
                  << " [--spec scenarios.spec] [--list-generators]"
                  << " [--trace-out trace.json]\n";
        std::exit(2);
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--spec") {
            if (++i >= argc)
                usage("--spec needs a path");
            cli.specPath = argv[i];
        } else if (arg == "--list-generators") {
            listGeneratorsAndExit();
        } else if (arg == "--trace-out") {
            if (++i >= argc)
                usage("--trace-out needs a path");
            cli.traceOut = argv[i];
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (!cli.specPath.empty()) {
        try {
            cli.scenarios = models::parseSpecFile(cli.specPath).scenarios;
        } catch (const ConfigError &e) {
            std::cerr << argv[0] << ": --spec: " << e.what() << "\n";
            std::exit(1);
        }
    }
    if (!cli.traceOut.empty())
        obs::TraceRecorder::instance().start(cli.traceOut);
}

/**
 * The initBench counterpart for binaries with NO sweep grid (fig15
 * and tables 2/3 print closed-form/VLIW-core values): any argument
 * is rejected with a one-line usage error and exit 2.
 */
inline void
initBenchNoGrid(int argc, char **argv)
{
    if (argc <= 1)
        return;
    std::cerr << argv[0] << ": unexpected argument '" << argv[1]
              << "' — this binary has no sweep grid and takes no "
                 "arguments\n"
              << "usage: " << argv[0] << "\n";
    std::exit(2);
}

namespace detail {

/** Display name of a report's case (scenario name or enum name). */
inline std::string
caseName(const sim::WorkloadReport &rep)
{
    return rep.scenario ? rep.scenario->name
                        : models::workloadName(rep.workload);
}

/** Record the grid span and persist the trace (no-op when off). */
inline void
traceGridDone(const char *kind, std::uint64_t sweep_start,
              std::size_t cases)
{
    auto &trace = obs::TraceRecorder::instance();
    if (!trace.enabled())
        return;
    trace.complete(kind, "sweep", sweep_start,
                   {{"cases", std::to_string(cases)}});
    trace.flush();
}

}  // namespace detail

/** Run the binary's sweep grid in process, traced under --trace-out. */
inline std::vector<sim::WorkloadReport>
runGrid(const std::vector<sim::SweepCase> &grid)
{
    auto sweep_start = obs::TraceRecorder::instance().nowUs();
    auto results = sweeper().run(grid);
    detail::traceGridDone("grid.run", sweep_start, grid.size());
    return results;
}

/** SLO-search counterpart of runGrid (the fig02/table4 path). */
inline std::vector<sim::SloResult>
searchGrid(const std::vector<sim::SweepCase> &grid)
{
    auto sweep_start = obs::TraceRecorder::instance().nowUs();
    auto results = sweeper().search(grid);
    detail::traceGridDone("grid.search", sweep_start, grid.size());
    return results;
}

/** Simulate (workload, gen) pairs in parallel, input-ordered. */
inline std::vector<sim::WorkloadReport>
simulateAll(const std::vector<models::Workload> &workloads,
            const std::vector<arch::NpuGeneration> &gens,
            const arch::GatingParams &params = {})
{
    return runGrid(sim::makeGrid(workloads, gens, params));
}

/**
 * One entry of a binary's workload axis: a paper workload (default
 * axis, or a `--spec` scenario identical to one) or a registry-driven
 * custom scenario. The figure binaries iterate this instead of the
 * Workload enum, so `--spec FILE` swaps the whole axis without
 * touching any rendering code.
 */
struct Scenario
{
    /** The paper workload; authoritative only when builtin. */
    models::Workload workload{};

    /** The spec scenario; null on the default (enum) axis. */
    std::shared_ptr<const models::ScenarioSpec> spec;

    /**
     * True when the identity is `workload` — the default axis, or a
     * spec scenario normalized onto the paper workload it duplicates
     * (models::builtinWorkloadOf), which keeps spec-driven output of
     * built-in scenarios byte-identical to the enum-driven run.
     */
    bool builtin = true;

    std::string
    name() const
    {
        return builtin ? models::workloadName(workload) : spec->name;
    }

    std::string
    familyLabel() const
    {
        return builtin
                   ? models::workloadFamilyName(
                         models::familyOf(workload))
                   : models::scenarioFamilyLabel(*spec);
    }

    models::WorkUnit
    unit() const
    {
        return builtin ? models::workUnitOf(workload)
                       : models::scenarioWorkUnit(*spec);
    }

    std::string unitLabel() const
    {
        return models::workUnitName(unit());
    }
};

/**
 * The binary's workload axis: @p defaults wrapped as builtin
 * scenarios, or — under `--spec FILE` — the spec's scenarios (those
 * identical to a paper workload normalized onto it).
 */
inline std::vector<Scenario>
workloadAxis(const std::vector<models::Workload> &defaults)
{
    const auto &cli = benchCli();
    std::vector<Scenario> axis;
    if (!cli.hasSpec()) {
        axis.reserve(defaults.size());
        for (auto w : defaults)
            axis.push_back(Scenario{w, nullptr, true});
        return axis;
    }
    axis.reserve(cli.scenarios.size());
    for (const auto &spec : cli.scenarios) {
        Scenario s;
        s.spec = spec;
        s.builtin = models::builtinWorkloadOf(*spec, &s.workload);
        axis.push_back(std::move(s));
    }
    return axis;
}

/**
 * The sweep case of one axis entry on @p gen: spec-backed entries go
 * through sim::scenarioCase (gating overlays + builtin
 * normalization); default-axis entries are the plain enum case.
 */
inline sim::SweepCase
caseFor(const Scenario &s, arch::NpuGeneration gen,
        const arch::GatingParams &params = {})
{
    if (s.spec)
        return sim::scenarioCase(s.spec, gen, params);
    sim::SweepCase c;
    c.workload = s.workload;
    c.gen = gen;
    c.params = params;
    return c;
}

/** Dense (axis x generations) grid, axis-major (see sim::makeGrid). */
inline std::vector<sim::SweepCase>
makeGrid(const std::vector<Scenario> &axis,
         const std::vector<arch::NpuGeneration> &gens,
         const arch::GatingParams &params = {})
{
    std::vector<sim::SweepCase> grid;
    grid.reserve(axis.size() * gens.size());
    for (const auto &s : axis) {
        for (auto gen : gens)
            grid.push_back(caseFor(s, gen, params));
    }
    return grid;
}

/** simulateAll over a workload axis (the `--spec`-aware spelling). */
inline std::vector<sim::WorkloadReport>
simulateAll(const std::vector<Scenario> &axis,
            const std::vector<arch::NpuGeneration> &gens,
            const arch::GatingParams &params = {})
{
    return runGrid(makeGrid(axis, gens, params));
}

/**
 * Walk simulateAll results in consumption order: returns the report
 * at @p idx and advances it, checking the report really is the
 * (workload, gen) the caller's loop expects — so a consumption loop
 * that falls out of step with makeGrid's workload-major grid order
 * fails loudly instead of silently showing another case's numbers.
 */
inline const sim::WorkloadReport &
reportFor(const std::vector<sim::WorkloadReport> &reports,
          std::size_t &idx, models::Workload w,
          arch::NpuGeneration gen)
{
    const auto &rep = reports.at(idx++);
    REGATE_CHECK(rep.workload == w && rep.gen == gen,
                 "report order mismatch at index ", idx - 1,
                 ": expected ", models::workloadName(w), "/",
                 arch::generationName(gen), ", got ",
                 models::workloadName(rep.workload), "/",
                 arch::generationName(rep.gen));
    return rep;
}

/** reportFor over a workload-axis entry (enum or custom scenario). */
inline const sim::WorkloadReport &
reportFor(const std::vector<sim::WorkloadReport> &reports,
          std::size_t &idx, const Scenario &s, arch::NpuGeneration gen)
{
    const auto &rep = reports.at(idx++);
    bool identity_ok =
        s.builtin ? (!rep.scenario && rep.workload == s.workload)
                  : rep.scenario == s.spec;
    REGATE_CHECK(identity_ok && rep.gen == gen,
                 "report order mismatch at index ", idx - 1,
                 ": expected ", s.name(), "/",
                 arch::generationName(gen), ", got ",
                 detail::caseName(rep), "/",
                 arch::generationName(rep.gen));
    return rep;
}

/**
 * True when @p res is a failed SLO search (SloResult::error), after
 * printing the error on stderr with the case's name and generation.
 * The binary prints an error row in its place, renders the rest and
 * exits 1.
 */
inline bool
searchFailed(const sim::SloResult &res, const Scenario &s,
             arch::NpuGeneration gen)
{
    if (res.error.empty())
        return false;
    std::cerr << "error: " << s.name() << "/"
              << arch::generationName(gen) << ": " << res.error << "\n";
    return true;
}

/** Print the standard bench banner. */
inline void
banner(const std::string &artifact, const std::string &caption)
{
    std::cout << "==============================================="
                 "=============\n"
              << artifact << ": " << caption << "\n"
              << "==============================================="
                 "=============\n";
}

/** The generations most figures sweep (A..D; E only in Fig. 23). */
inline std::vector<arch::NpuGeneration>
paperGenerations()
{
    return {arch::NpuGeneration::A, arch::NpuGeneration::B,
            arch::NpuGeneration::C, arch::NpuGeneration::D};
}

/** The §6.5 sensitivity workload set. */
inline std::vector<models::Workload>
sensitivityWorkloads()
{
    return {models::Workload::Train405B, models::Workload::Prefill405B,
            models::Workload::Decode405B, models::Workload::DlrmL,
            models::Workload::DiTXL};
}

/** Short generation label ("A".."E"). */
inline std::string
genLabel(arch::NpuGeneration gen)
{
    return arch::generationName(gen);
}

}  // namespace bench
}  // namespace regate

#endif  // REGATE_BENCH_BENCH_UTIL_H
