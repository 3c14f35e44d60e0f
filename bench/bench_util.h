/**
 * @file
 * Shared helpers for the figure/table regeneration benches. Each
 * bench binary prints the rows/series of one paper artifact so the
 * output can be compared side by side with the paper (shape, not
 * absolute numbers; bench/README.md covers the binaries and flags).
 *
 * Every binary is one in-process run. Grid binaries (those that
 * sweep scenarios x generations) take three optional flags, parsed by
 * initBench: `--spec FILE` replaces the default scenario axis,
 * `--list-generators` prints the spec vocabulary, and
 * `--trace-out FILE` records a Chrome/Perfetto timeline. Binaries
 * without a grid call initBenchNoGrid and take no arguments.
 * Exit status: 0 = success, 1 = runtime/config failure (message on
 * stderr; an SLO search that fails for one case prints an error row
 * and the rest of the artifact first), 2 = usage error.
 *
 * A binary's axis is a list of scenario specs: built-in paper rows
 * (models::builtinScenario) by default, the `--spec` file's scenarios
 * otherwise. Spec scenarios that duplicate a paper workload become its
 * row, so either way a binary renders only from the spec.
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

using ScenarioPtr = std::shared_ptr<const models::ScenarioSpec>;

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
     * `--spec FILE`: the scenarios that replace the binary's default
     * axis (workloadAxis), duplicates of paper workloads replaced by
     * their built-in rows.
     */
    std::string specPath;
    std::vector<ScenarioPtr> scenarios;

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
 * `--list-generators`: print every workload family in the family table
 * and the spec keys it accepts, then exit 0. The output is the
 * reference for writing `--spec` files.
 */
inline void
listGeneratorsAndExit()
{
    for (const auto &row : models::familyTable()) {
        std::cout << row.key << " — " << row.label << "\n";
        for (const auto &key : models::specKeys(row))
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
            for (auto &spec : cli.scenarios) {
                if (auto row = models::builtinScenarioOf(*spec))
                    spec = std::move(row);
            }
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

/**
 * Run the binary's sweep grid in process, traced under --trace-out. A
 * case that cannot be simulated (a ConfigError) ends the binary with
 * exit 1 and the message on stderr.
 */
inline std::vector<sim::WorkloadReport>
runGrid(const std::vector<sim::SweepCase> &grid)
{
    auto sweep_start = obs::TraceRecorder::instance().nowUs();
    std::vector<sim::WorkloadReport> results;
    try {
        results = sweeper().run(grid);
    } catch (const ConfigError &e) {
        std::cerr << "error: " << e.what() << "\n";
        std::exit(1);
    }
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

/** All 17 paper workloads, in paper (family) order. */
inline std::vector<ScenarioPtr>
paperSuite()
{
    std::vector<ScenarioPtr> axis;
    for (auto w : models::allWorkloads())
        axis.push_back(models::builtinScenario(w));
    return axis;
}

/**
 * The binary's scenario axis: @p defaults, or the `--spec` file's
 * scenarios under `--spec FILE`.
 */
inline std::vector<ScenarioPtr>
workloadAxis(std::vector<ScenarioPtr> defaults)
{
    const auto &cli = benchCli();
    return cli.hasSpec() ? cli.scenarios : defaults;
}

/** Simulate the (axis x generations) grid in parallel, axis-major. */
inline std::vector<sim::WorkloadReport>
simulateAll(const std::vector<ScenarioPtr> &axis,
            const std::vector<arch::NpuGeneration> &gens,
            const arch::GatingParams &params = {})
{
    return runGrid(sim::scenarioGrid(axis, gens, params));
}

/**
 * Walk simulateAll results in consumption order: returns the report
 * at @p idx and advances it, checking the report really is the
 * (scenario, gen) the caller's loop expects — so a consumption loop
 * that falls out of step with the grid's axis-major order fails
 * loudly instead of silently showing another case's numbers.
 */
inline const sim::WorkloadReport &
reportFor(const std::vector<sim::WorkloadReport> &reports,
          std::size_t &idx, const ScenarioPtr &s, arch::NpuGeneration gen)
{
    const auto &rep = reports.at(idx++);
    REGATE_CHECK(rep.scenario == s && rep.gen == gen,
                 "report order mismatch at index ", idx - 1,
                 ": expected ", s->name, "/", arch::generationName(gen),
                 ", got ", rep.scenario ? rep.scenario->name : "none",
                 "/", arch::generationName(rep.gen));
    return rep;
}

/**
 * True when @p res is a failed SLO search (SloResult::error), after
 * printing the error on stderr with the case's name and generation.
 * The binary prints an error row in its place, renders the rest and
 * exits 1.
 */
inline bool
searchFailed(const sim::SloResult &res, const models::ScenarioSpec &s,
             arch::NpuGeneration gen)
{
    if (res.error.empty())
        return false;
    std::cerr << "error: " << s.name << "/"
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
inline std::vector<ScenarioPtr>
sensitivityWorkloads()
{
    using models::builtinScenario;
    using models::Workload;
    return {builtinScenario(Workload::Train405B),
            builtinScenario(Workload::Prefill405B),
            builtinScenario(Workload::Decode405B),
            builtinScenario(Workload::DlrmL),
            builtinScenario(Workload::DiTXL)};
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
