#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace regate {
namespace stats {

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

double
minOf(const std::vector<double> &xs)
{
    REGATE_CHECK(!xs.empty(), "min of empty sample");
    return *std::min_element(xs.begin(), xs.end());
}

double
maxOf(const std::vector<double> &xs)
{
    REGATE_CHECK(!xs.empty(), "max of empty sample");
    return *std::max_element(xs.begin(), xs.end());
}

double
r2(const std::vector<double> &xs, const std::vector<double> &ys)
{
    REGATE_CHECK(xs.size() == ys.size(), "r2: size mismatch ", xs.size(),
                 " vs ", ys.size());
    REGATE_CHECK(xs.size() >= 2, "r2 needs at least two samples");
    double mx = mean(xs), my = mean(ys);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        double dx = xs[i] - mx, dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx == 0.0 || syy == 0.0)
        return sxx == 0.0 && syy == 0.0 && mx == my ? 1.0 : 0.0;
    double r = sxy / std::sqrt(sxx * syy);
    return r * r;
}

std::vector<std::pair<double, double>>
weightedCdf(std::vector<std::pair<double, double>> samples)
{
    REGATE_CHECK(!samples.empty(), "weightedCdf of empty sample");
    std::sort(samples.begin(), samples.end());
    double total = 0.0;
    for (const auto &[v, w] : samples) {
        REGATE_CHECK(w >= 0.0, "weightedCdf: negative weight ", w);
        total += w;
    }
    REGATE_CHECK(total > 0.0, "weightedCdf: zero total weight");

    std::vector<std::pair<double, double>> out;
    double acc = 0.0;
    for (const auto &[v, w] : samples) {
        acc += w;
        // Merge duplicate values, keeping the last cumulative point.
        if (!out.empty() && out.back().first == v)
            out.back().second = acc / total;
        else
            out.emplace_back(v, acc / total);
    }
    return out;
}

double
cdfAt(const std::vector<std::pair<double, double>> &cdf, double value)
{
    double best = 0.0;
    for (const auto &[v, f] : cdf) {
        if (v <= value)
            best = f;
        else
            break;
    }
    return best;
}

}  // namespace stats
}  // namespace regate
