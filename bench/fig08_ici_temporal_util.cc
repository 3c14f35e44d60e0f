/**
 * @file
 * Fig. 8: ICI temporal utilization per workload and generation.
 */

#include "bench/bench_util.h"
#include "bench/figure_rows.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    return bench::utilizationFigure(
        argc, argv, "Figure 8", "ICI temporal utilization",
        bench::fig08Util,
        "Paper shape: ~0 for single-chip/diffusion, high for DLRM "
        "(AllToAll-bound), low-mid for TP LLMs");
}
