/**
 * @file
 * Shared helpers for the figure/table regeneration benches. Each
 * bench binary prints the rows/series of one paper artifact so the
 * output can be compared side by side with the paper (shape, not
 * absolute numbers; bench/README.md covers the binaries and flags).
 * For the figures golden_figures_test pins, what the figure prints is
 * computed in bench/figure_rows.h and the binary only formats it.
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
 * (models::paperSuite, or rows picked by name with
 * models::builtinScenario) by default, the `--spec` file's scenarios
 * otherwise. Spec scenarios that duplicate a paper workload become its
 * row, so either way a binary renders only from the spec.
 *
 * runGrid keeps every report, and so every execution's run (timelines
 * and op records), until the binary drops the vector. mapGrid instead
 * reduces each report to what the binary prints, on the worker that
 * made it, so an execution's run dies with its sweep group; its map
 * runs on several workers at once and must touch no shared state.
 * fig17, the spec-sweep binary, maps each report to its row's numbers
 * (fig17Row) and formats them into its table in axis order; the other
 * grids are at most a few hundred cases and keep their reports.
 */

#ifndef REGATE_BENCH_BENCH_UTIL_H
#define REGATE_BENCH_BENCH_UTIL_H

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
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

namespace detail {

/**
 * Persist the trace (no-op when off); a file that cannot be written
 * ends the binary with exit 1 and the path on stderr.
 */
inline void
flushTrace()
{
    try {
        obs::TraceRecorder::instance().flush();
    } catch (const ConfigError &e) {
        std::cerr << "error: --trace-out: " << e.what() << "\n";
        std::exit(1);
    }
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
    flushTrace();
}

}  // namespace detail

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
            if (++i >= argc || !*argv[i])
                usage("--spec needs a path");
            cli.specPath = argv[i];
        } else if (arg == "--list-generators") {
            listGeneratorsAndExit();
        } else if (arg == "--trace-out") {
            if (++i >= argc || !*argv[i])
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
    if (!cli.traceOut.empty()) {
        // Write the (still empty) trace now, so that an unwritable
        // path fails before anything is simulated.
        obs::TraceRecorder::instance().start(cli.traceOut);
        detail::flushTrace();
    }
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

/**
 * Run the binary's sweep grid in process, traced under --trace-out,
 * and return @p map(report) for every case, index-aligned with
 * @p grid. @p map runs on the worker that made the report, as soon as
 * it is made, possibly on several workers at once; the report (and,
 * once its group is done, its execution's run) dies when @p map
 * returns unless the value keeps it. A case that cannot be simulated
 * (a ConfigError) ends the binary with exit 1 and the message on
 * stderr.
 */
template <typename Map>
auto
mapGrid(const std::vector<sim::SweepCase> &grid, Map map)
{
    using Value =
        std::decay_t<std::invoke_result_t<Map &, sim::WorkloadReport &&>>;
    auto sweep_start = obs::TraceRecorder::instance().nowUs();
    std::vector<Value> values(grid.size());
    try {
        sim::SweepRunner().run(
            grid, [&](std::size_t i, sim::WorkloadReport &&report) {
                values[i] = map(std::move(report));
            });
    } catch (const ConfigError &e) {
        std::cerr << "error: " << e.what() << "\n";
        std::exit(1);
    }
    detail::traceGridDone("grid.run", sweep_start, grid.size());
    return values;
}

/** mapGrid keeping every report (and so every execution's run). */
inline std::vector<sim::WorkloadReport>
runGrid(const std::vector<sim::SweepCase> &grid)
{
    return mapGrid(grid, [](sim::WorkloadReport &&report) {
        return std::move(report);
    });
}

/** SLO-search counterpart of runGrid (the fig02/table4 path). */
inline std::vector<sim::SloResult>
searchGrid(const std::vector<sim::SweepCase> &grid)
{
    auto sweep_start = obs::TraceRecorder::instance().nowUs();
    auto results = sim::SweepRunner().search(grid);
    detail::traceGridDone("grid.search", sweep_start, grid.size());
    return results;
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
 * Walk simulateAll results in consumption order: returns the report at
 * @p idx and advances it, checking it really is the (scenario, gen)
 * the caller's loop expects — so a consumption loop that falls out of
 * step with the grid's axis-major order fails loudly instead of
 * silently showing another case's numbers.
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
    return {builtinScenario("Llama3.1-405B-Train"),
            builtinScenario("Llama3.1-405B-Prefill"),
            builtinScenario("Llama3.1-405B-Decode"),
            builtinScenario("DLRM-L"), builtinScenario("DiT-XL")};
}

/**
 * The whole of a utilization figure (Figs. 4-6, 8 and 9): the banner,
 * then @p metric (one of figure_rows.h's) of every scenario of the
 * axis on NPU-A..D, one row per scenario, then @p footnote. Returns
 * main's exit status.
 */
inline int
utilizationFigure(int argc, char **argv, const char *artifact,
                  const char *caption,
                  double (*metric)(const sim::WorkloadReport &),
                  const char *footnote)
{
    initBench(argc, argv);
    banner(artifact, caption);

    TablePrinter t({"Workload", "A", "B", "C", "D"});
    auto axis = workloadAxis(models::paperSuite());
    auto reports = simulateAll(axis, paperGenerations());
    std::size_t idx = 0;
    for (const auto &s : axis) {
        std::vector<std::string> cells = {s->name};
        for (auto gen : paperGenerations())
            cells.push_back(TablePrinter::pct(
                metric(reportFor(reports, idx, s, gen)), 1));
        t.addRow(std::move(cells));
    }
    t.print(std::cout);
    std::cout << footnote << "\n";
    return 0;
}

}  // namespace bench
}  // namespace regate

#endif  // REGATE_BENCH_BENCH_UTIL_H
