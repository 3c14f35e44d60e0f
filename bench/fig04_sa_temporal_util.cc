/**
 * @file
 * Fig. 4: SA temporal utilization (active cycles / total cycles)
 * per workload and generation.
 */

#include "bench/bench_util.h"
#include "bench/figure_rows.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    return bench::utilizationFigure(
        argc, argv, "Figure 4", "SA temporal utilization",
        bench::fig04Util,
        "Paper shape: high for training/prefill/diffusion, ~0 for DLRM "
        "and small-batch decode (S3)");
}
