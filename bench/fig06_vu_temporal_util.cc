/**
 * @file
 * Fig. 6: VU temporal utilization per workload and generation.
 */

#include "bench/bench_util.h"
#include "bench/figure_rows.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    return bench::utilizationFigure(
        argc, argv, "Figure 6", "VU temporal utilization",
        bench::fig06Util,
        "Paper shape: below 60% everywhere -- VUs wait on SA/HBM/ICI "
        "(S3)");
}
