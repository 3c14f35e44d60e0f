/**
 * @file
 * Fig. 7: distribution of SRAM working-set demands of tensor
 * operators, weighted by operator execution time (NPU-D). Printed as
 * CDF percentiles per workload family.
 */

#include "bench/bench_util.h"
#include "common/stats.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBench(argc, argv);
    bench::banner("Figure 7",
                  "SRAM demand CDF, weighted by operator execution "
                  "time (NPU-D)");

    TablePrinter t({"Workload", "p10 (MB)", "p25", "p50", "p75",
                    "p90", "p100", "<=8MB", "<=128MB"});
    auto axis = bench::workloadAxis(models::paperSuite());
    auto reports =
        bench::simulateAll(axis, {arch::NpuGeneration::D});
    std::size_t idx = 0;
    for (const auto &s : axis) {
        const auto &rep = bench::reportFor(
            reports, idx, s, arch::NpuGeneration::D);
        std::vector<std::pair<double, double>> samples;
        for (const auto &rec : rep.opRecords()) {
            if (rec.sramDemandBytes <= 0)
                continue;  // Fused ops live inside their producer.
            samples.emplace_back(rec.sramDemandBytes,
                                 static_cast<double>(rec.duration) *
                                     static_cast<double>(rec.count));
        }
        auto cdf = stats::weightedCdf(samples);
        auto at = [&](double frac) {
            // Invert the CDF at the given fraction.
            for (const auto &[v, f] : cdf) {
                if (f >= frac)
                    return v / (1 << 20);
            }
            return cdf.back().first / (1 << 20);
        };
        t.addRow({s->name,
                  TablePrinter::fmt(at(0.10), 2),
                  TablePrinter::fmt(at(0.25), 2),
                  TablePrinter::fmt(at(0.50), 2),
                  TablePrinter::fmt(at(0.75), 2),
                  TablePrinter::fmt(at(0.90), 2),
                  TablePrinter::fmt(at(1.0), 2),
                  TablePrinter::pct(
                      stats::cdfAt(cdf, 8.0 * (1 << 20)), 1),
                  TablePrinter::pct(
                      stats::cdfAt(cdf, 128.0 * (1 << 20)), 1)});
    }
    t.print(std::cout);
    std::cout << "Paper shape: DLRM demand stays below 8 MB; "
                 "training/prefill demands can exceed the 128 MB "
                 "scratchpad (§3)\n";
    return 0;
}
