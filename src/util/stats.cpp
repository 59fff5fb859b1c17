#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"
#include "util/wire.hpp"

namespace quetzal {
namespace util {

double
RunningStats::variance() const
{
    if (n < 2)
        return 0.0;
    return m2 / static_cast<double>(n - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double lo_, double hi_, std::size_t bins_)
    : lo(lo_), hi(hi_), counts(bins_, 0)
{
    if (bins_ == 0)
        panic("Histogram requires at least one bin");
    if (!(hi > lo))
        panic(msg("Histogram range invalid: [", lo, ", ", hi, ")"));
}

void
Histogram::add(double sample)
{
    const double span = hi - lo;
    double norm = (sample - lo) / span;
    norm = std::clamp(norm, 0.0, 1.0);
    auto bin = static_cast<std::size_t>(
        norm * static_cast<double>(counts.size()));
    bin = std::min(bin, counts.size() - 1);
    ++counts[bin];
    ++n;
}

double
Histogram::quantile(double q) const
{
    if (n == 0)
        return lo;
    q = std::clamp(q, 0.0, 1.0);
    const auto target = static_cast<double>(n) * q;
    double cumulative = 0.0;
    for (std::size_t bin = 0; bin < counts.size(); ++bin) {
        const double next = cumulative + static_cast<double>(counts[bin]);
        if (next >= target) {
            const double width = (hi - lo) /
                static_cast<double>(counts.size());
            const double within = counts[bin] == 0 ? 0.0 :
                (target - cumulative) / static_cast<double>(counts[bin]);
            return lo + (static_cast<double>(bin) + within) * width;
        }
        cumulative = next;
    }
    return hi;
}

double
geometricMean(const std::vector<double> &values)
{
    if (values.empty())
        return 1.0;
    double logSum = 0.0;
    for (double value : values) {
        if (value <= 0.0)
            panic(msg("geometricMean requires positive values, got ",
                      value));
        logSum += std::log(value);
    }
    return std::exp(logSum / static_cast<double>(values.size()));
}

void
RunningStats::State::walk(wire::Archive &ar)
{
    ar.varint(n);
    ar.real(runningMean);
    ar.real(m2);
    ar.real(minSample);
    ar.real(maxSample);
    ar.real(total);
}

} // namespace util
} // namespace quetzal
