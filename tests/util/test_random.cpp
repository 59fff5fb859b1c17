/**
 * @file
 * Tests for util::Rng determinism and distribution sanity.
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.hpp"
#include "util/stats.hpp"

namespace quetzal {
namespace util {
namespace {

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(123);
    Rng b(124);
    int equal = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a() == b())
            ++equal;
    }
    EXPECT_LT(equal, 5);
}

TEST(Rng, Uniform01InRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform01();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(7);
    bool sawLo = false;
    bool sawHi = false;
    for (int i = 0; i < 20000; ++i) {
        const auto v = rng.uniformInt(0, 7);
        ASSERT_GE(v, 0);
        ASSERT_LE(v, 7);
        sawLo = sawLo || v == 0;
        sawHi = sawHi || v == 7;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, BernoulliEdgeCases)
{
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(9);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(11);
    RunningStats stats;
    for (int i = 0; i < 100000; ++i)
        stats.add(rng.exponential(4.0));
    EXPECT_NEAR(stats.mean(), 4.0, 0.1);
    EXPECT_GT(stats.min(), 0.0);
}

TEST(Rng, NormalMoments)
{
    Rng rng(13);
    RunningStats stats;
    for (int i = 0; i < 100000; ++i)
        stats.add(rng.normal(2.0, 3.0));
    EXPECT_NEAR(stats.mean(), 2.0, 0.1);
    EXPECT_NEAR(stats.stddev(), 3.0, 0.1);
}

TEST(Rng, LognormalMedian)
{
    Rng rng(17);
    std::vector<double> samples;
    for (int i = 0; i < 50001; ++i)
        samples.push_back(rng.lognormal(std::log(10.0), 0.9));
    std::sort(samples.begin(), samples.end());
    // Median of exp(N(mu, sigma)) is exp(mu).
    EXPECT_NEAR(samples[samples.size() / 2], 10.0, 0.5);
}

TEST(Rng, ForkDecorrelates)
{
    Rng parent(21);
    Rng child = parent.fork();
    int equal = 0;
    for (int i = 0; i < 1000; ++i) {
        if (parent() == child())
            ++equal;
    }
    EXPECT_LT(equal, 5);
}

} // namespace
} // namespace util
} // namespace quetzal
