#include "sa/sa_analytical.h"

#include "common/checked.h"
#include "common/error.h"

namespace regate {
namespace sa {

double
SaTileStats::spatialUtilization() const
{
    std::uint64_t total = totalPeCycles();
    return total > 0 ?
        static_cast<double>(macs) / static_cast<double>(total) : 0.0;
}

SaTileStats &
SaTileStats::operator+=(const SaTileStats &o)
{
    computeCycles = checkedAdd(computeCycles, o.computeCycles,
                               "SA compute cycle count");
    weightLoadCycles = checkedAdd(weightLoadCycles, o.weightLoadCycles,
                                  "SA weight-load cycle count");
    peOnCycles = checkedAdd(peOnCycles, o.peOnCycles,
                            "SA PE-on cycle count");
    peWOnCycles = checkedAdd(peWOnCycles, o.peWOnCycles,
                             "SA PE W_on cycle count");
    peOffCycles = checkedAdd(peOffCycles, o.peOffCycles,
                             "SA PE-off cycle count");
    macs = checkedAdd(macs, o.macs, "SA MAC count");
    return *this;
}

SaTileStats
SaTileStats::scaled(std::uint64_t n) const
{
    SaTileStats s;
    s.computeCycles = checkedMul(computeCycles, n,
                                 "SA compute cycle count");
    s.weightLoadCycles = checkedMul(weightLoadCycles, n,
                                    "SA weight-load cycle count");
    s.peOnCycles = checkedMul(peOnCycles, n, "SA PE-on cycle count");
    s.peWOnCycles = checkedMul(peWOnCycles, n, "SA PE W_on cycle count");
    s.peOffCycles = checkedMul(peOffCycles, n, "SA PE-off cycle count");
    s.macs = checkedMul(macs, n, "SA MAC count");
    return s;
}

SaTileStats
analyzeTile(std::int64_t m, int k, int n, int width)
{
    REGATE_CHECK(width > 0, "SA width must be positive");
    REGATE_CHECK(m >= 1, "tile M must be >= 1");
    REGATE_CHECK(k >= 1 && k <= width, "tile K=", k, " out of [1, ",
                 width, "]");
    REGATE_CHECK(n >= 1 && n <= width, "tile N=", n, " out of [1, ",
                 width, "]");

    SaTileStats s;
    // k, n <= width, so only the terms with m can leave 64 bits.
    s.computeCycles = checkedAdd(static_cast<Cycles>(m), k + n - 1,
                                 "SA compute cycle count");
    s.weightLoadCycles = static_cast<Cycles>(k);
    auto active_pes = static_cast<std::uint64_t>(k) * n;
    auto total_pes = static_cast<std::uint64_t>(width) * width;
    s.macs = checkedMul(static_cast<std::uint64_t>(m), active_pes,
                        "SA MAC count");
    s.peOnCycles = s.macs;
    s.peWOnCycles = active_pes * (s.computeCycles - m);
    s.peOffCycles = checkedMul(total_pes - active_pes, s.computeCycles,
                               "SA PE-off cycle count");
    return s;
}

SaTileStats
analyzeMatmul(std::int64_t m, std::int64_t k, std::int64_t n, int width)
{
    REGATE_CHECK(m >= 1 && k >= 1 && n >= 1,
                 "matmul dims must be >= 1, got ", m, "x", k, "x", n);
    const std::int64_t w = width;

    // Weight-stationary: the K and N dimensions tile onto the array;
    // the whole M dimension streams through each weight tile (the
    // tile's activation rows are never split, which is what keeps
    // large-M GEMMs near peak spatial utilization, Fig. 5).
    auto split = [w](std::int64_t dim) {
        std::int64_t full = dim / w;
        std::int64_t rem = dim % w;
        return std::pair<std::int64_t, std::int64_t>(full, rem);
    };
    auto [kf, kr] = split(k);
    auto [nf, nr] = split(n);

    SaTileStats total;
    // Enumerate the (full | remainder) combinations per tiled dim.
    struct Dim { std::int64_t size; std::int64_t count; };
    Dim ks[2] = {{w, kf}, {kr, kr > 0 ? 1 : 0}};
    Dim ns[2] = {{w, nf}, {nr, nr > 0 ? 1 : 0}};
    // The streamed M dimension is chunked only by the simulator's
    // analysis granularity, not reloaded per chunk.
    for (const auto &dk : ks) {
        for (const auto &dn : ns) {
            std::uint64_t count =
                static_cast<std::uint64_t>(dk.count * dn.count);
            if (count == 0 || dk.size == 0 || dn.size == 0)
                continue;
            auto tile = analyzeTile(m, static_cast<int>(dk.size),
                                    static_cast<int>(dn.size), width);
            total += tile.scaled(count);
        }
    }
    // Weight loads are double-buffered: only the first tile's load is
    // exposed; account the rest as overlapped (keep the counter but do
    // not add it to computeCycles here -- the operator model decides).
    return total;
}

double
saStaticEnergyGated(const SaTileStats &stats, double pe_static_w,
                    double cycle_time, double w_on_fraction,
                    double off_leakage)
{
    REGATE_CHECK(pe_static_w >= 0 && cycle_time > 0,
                 "bad PE power/cycle time");
    double on = static_cast<double>(stats.peOnCycles);
    double won = static_cast<double>(stats.peWOnCycles);
    double off = static_cast<double>(stats.peOffCycles);
    return pe_static_w * cycle_time *
           (on + w_on_fraction * won + off_leakage * off);
}

}  // namespace sa
}  // namespace regate
