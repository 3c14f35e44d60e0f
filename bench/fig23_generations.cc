/**
 * @file
 * Fig. 23: energy savings across NPU generations A..E, including the
 * projected NPU-E whose larger SAs (256x256) and SRAM (256 MB) are
 * less utilized and thus save more on non-compute-bound workloads.
 */

#include "bench/bench_util.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBench(argc, argv);
    using sim::Policy;
    bench::banner("Figure 23",
                  "energy savings by NPU generation (vs NoPG)");

    auto axis = bench::workloadAxis(bench::sensitivityWorkloads());
    auto reports = bench::simulateAll(axis, arch::allGenerations());
    std::size_t idx = 0;
    for (const auto &s : axis) {
        std::cout << "\n-- " << s->name << " --\n";
        TablePrinter t({"Gen", "Base", "HW", "Full", "Ideal"});
        for (auto gen : arch::allGenerations()) {
            const auto &rep =
                bench::reportFor(reports, idx, s, gen);
            auto sav = [&](Policy p) {
                return TablePrinter::pct(rep.savingVsNoPg(p), 1);
            };
            t.addRow({bench::genLabel(gen), sav(Policy::Base),
                      sav(Policy::HW), sav(Policy::Full),
                      sav(Policy::Ideal)});
        }
        t.print(std::cout);
    }
    std::cout << "\nPaper: savings on NPU-E exceed NPU-D for decode/"
                 "DLRM/SD (bigger, less-utilized units); compute-"
                 "bound training/prefill save relatively less "
                 "(§6.5)\n";
    return 0;
}
