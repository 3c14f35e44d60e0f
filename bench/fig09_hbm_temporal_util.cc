/**
 * @file
 * Fig. 9: HBM temporal utilization per workload and generation.
 */

#include "bench/bench_util.h"
#include "bench/figure_rows.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    return bench::utilizationFigure(
        argc, argv, "Figure 9", "HBM temporal utilization",
        bench::fig09Util,
        "Paper shape: ~100% for decode, 10-30% for prefill/training, "
        "low for diffusion");
}
