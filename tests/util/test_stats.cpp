/**
 * @file
 * Tests for util statistics helpers.
 */

#include <gtest/gtest.h>

#include "util/stats.hpp"

namespace quetzal {
namespace util {
namespace {

TEST(RunningStats, EmptyIsZero)
{
    RunningStats stats;
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_EQ(stats.mean(), 0.0);
    EXPECT_EQ(stats.variance(), 0.0);
    EXPECT_EQ(stats.sum(), 0.0);
}

TEST(RunningStats, KnownMoments)
{
    RunningStats stats;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stats.add(v);
    EXPECT_EQ(stats.count(), 8u);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    // Unbiased sample variance of the classic example set is 32/7.
    EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_EQ(stats.min(), 2.0);
    EXPECT_EQ(stats.max(), 9.0);
    EXPECT_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential)
{
    RunningStats whole;
    RunningStats left;
    RunningStats right;
    for (int i = 0; i < 100; ++i) {
        const double v = 0.1 * i * i - 3.0 * i;
        whole.add(v);
        (i < 37 ? left : right).add(v);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
    EXPECT_EQ(left.min(), whole.min());
    EXPECT_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty)
{
    RunningStats a;
    a.add(1.0);
    a.add(3.0);
    RunningStats empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    RunningStats b;
    b.merge(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Histogram, BinningAndEdges)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(9.5);
    h.add(-100.0); // clamps into the first bin
    h.add(100.0);  // clamps into the last bin
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(9), 2u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, QuantileUniform)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(i + 0.5);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
    EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
}

TEST(GeometricMean, Basics)
{
    EXPECT_DOUBLE_EQ(geometricMean({}), 1.0);
    EXPECT_NEAR(geometricMean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geometricMean({1.0, 10.0, 100.0}), 10.0, 1e-9);
}

} // namespace
} // namespace util
} // namespace quetzal
