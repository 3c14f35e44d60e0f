/**
 * @file
 * Fig. 5: SA spatial utilization -- achieved FLOPs over peak FLOPs
 * during SA active time.
 */

#include "bench/bench_util.h"
#include "bench/figure_rows.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    return bench::utilizationFigure(
        argc, argv, "Figure 5",
        "SA spatial utilization (achieved/peak FLOPs while active)",
        bench::fig05Util,
        "Paper shape: prefill ~90%+, decode/DLRM low, diffusion mid "
        "(head sizes < SA width)");
}
