/**
 * @file
 * Streaming statistics used by metrics collection, trace validation
 * tests and benchmark reporting.
 */

#ifndef QUETZAL_UTIL_STATS_HPP
#define QUETZAL_UTIL_STATS_HPP

#include <cstddef>
#include <vector>

namespace quetzal {
namespace util {

namespace wire {
class Archive;
}

/**
 * Welford-style running mean/variance with min/max tracking.
 * Numerically stable; O(1) per sample.
 */
class RunningStats
{
  public:
    /** Add one sample. Inline: called once per completed job. */
    void
    add(double sample)
    {
        if (n == 0) {
            minSample = sample;
            maxSample = sample;
        } else {
            minSample = sample < minSample ? sample : minSample;
            maxSample = sample > maxSample ? sample : maxSample;
        }
        ++n;
        total += sample;
        const double delta = sample - runningMean;
        runningMean += delta / static_cast<double>(n);
        m2 += delta * (sample - runningMean);
    }

    /** Merge another accumulator into this one. */
    void merge(const RunningStats &other);

    /** Number of samples seen. */
    std::size_t count() const { return n; }

    /** Sample mean (0 if empty). */
    double mean() const { return n ? runningMean : 0.0; }

    /** Unbiased sample variance (0 if fewer than two samples). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Smallest sample (0 if empty). */
    double min() const { return n ? minSample : 0.0; }

    /** Largest sample (0 if empty). */
    double max() const { return n ? maxSample : 0.0; }

    /** Sum of all samples. */
    double sum() const { return total; }

    /** Accumulator internals, for checkpoint/restore. */
    struct State
    {
        std::size_t n = 0;
        double runningMean = 0.0;
        double m2 = 0.0;
        double minSample = 0.0;
        double maxSample = 0.0;
        double total = 0.0;

        /** The wire layout: varint n, then the five doubles. */
        void walk(wire::Archive &ar);
    };

    /** Snapshot the accumulator (see State). */
    State exportState() const
    {
        return State{n, runningMean, m2, minSample, maxSample, total};
    }

    /** Restore a snapshot taken with exportState(). */
    void importState(const State &snapshot)
    {
        n = snapshot.n;
        runningMean = snapshot.runningMean;
        m2 = snapshot.m2;
        minSample = snapshot.minSample;
        maxSample = snapshot.maxSample;
        total = snapshot.total;
    }

  private:
    std::size_t n = 0;
    double runningMean = 0.0;
    double m2 = 0.0;
    double minSample = 0.0;
    double maxSample = 0.0;
    double total = 0.0;
};

/**
 * Fixed-bin histogram over [lo, hi); samples outside the range land
 * in saturating edge bins.
 */
class Histogram
{
  public:
    /**
     * @param lo lower edge of the first bin
     * @param hi upper edge of the last bin (must exceed lo)
     * @param bins number of bins (>= 1)
     */
    Histogram(double lo, double hi, std::size_t bins);

    /** Add one sample. */
    void add(double sample);

    /** Count in the given bin. */
    std::size_t binCount(std::size_t bin) const;

    /** Number of bins. */
    std::size_t bins() const { return counts.size(); }

    /** Total samples added. */
    std::size_t total() const { return n; }

    /**
     * Linear-interpolated quantile estimate, q in [0, 1].
     * Returns lo when empty.
     */
    double quantile(double q) const;

  private:
    double lo;
    double hi;
    std::vector<std::size_t> counts;
    std::size_t n = 0;
};

/** Geometric mean of a set of strictly positive values (1 if empty). */
double geometricMean(const std::vector<double> &values);

} // namespace util
} // namespace quetzal

#endif // QUETZAL_UTIL_STATS_HPP
