/**
 * @file
 * Disturbance-signal tests: shapes match their definitions sample by
 * sample, and signals are pure functions of (config, seed).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "support/disturbance.hpp"

namespace quetzal {
namespace fault {
namespace {

TEST(Disturbance, StepIsZeroThenAmplitude)
{
    Disturbance d;
    d.shape = DisturbanceShape::Step;
    d.amplitude = 2.5;
    d.startIndex = 4;
    const auto samples = disturbanceSamples(d, 10);
    ASSERT_EQ(samples.size(), 10u);
    for (std::size_t k = 0; k < 4; ++k)
        EXPECT_EQ(samples[k], 0.0) << k;
    for (std::size_t k = 4; k < 10; ++k)
        EXPECT_EQ(samples[k], 2.5) << k;
}

TEST(Disturbance, RampRisesLinearlyThenHolds)
{
    Disturbance d;
    d.shape = DisturbanceShape::Ramp;
    d.amplitude = 8.0;
    d.startIndex = 2;
    d.rampLength = 4;
    const auto samples = disturbanceSamples(d, 10);
    EXPECT_EQ(samples[0], 0.0);
    EXPECT_EQ(samples[1], 0.0);
    EXPECT_DOUBLE_EQ(samples[2], 2.0);
    EXPECT_DOUBLE_EQ(samples[3], 4.0);
    EXPECT_DOUBLE_EQ(samples[4], 6.0);
    EXPECT_DOUBLE_EQ(samples[5], 8.0);
    for (std::size_t k = 6; k < 10; ++k)
        EXPECT_DOUBLE_EQ(samples[k], 8.0) << k;
}

TEST(Disturbance, RampRejectsZeroLength)
{
    Disturbance d;
    d.shape = DisturbanceShape::Ramp;
    d.rampLength = 0;
    EXPECT_DEATH(disturbanceSamples(d, 5), "rampLength");
}

TEST(Disturbance, NoiseIsSeededAndReproducible)
{
    Disturbance d;
    d.shape = DisturbanceShape::Noise;
    d.amplitude = 1.5;
    d.seed = 11;
    const auto a = disturbanceSamples(d, 100);
    const auto b = disturbanceSamples(d, 100);
    ASSERT_EQ(a, b);

    d.seed = 12;
    const auto c = disturbanceSamples(d, 100);
    EXPECT_NE(a, c);
}

TEST(Disturbance, NoiseRespectsStartIndex)
{
    Disturbance d;
    d.shape = DisturbanceShape::Noise;
    d.amplitude = 1.0;
    d.startIndex = 5;
    const auto samples = disturbanceSamples(d, 20);
    for (std::size_t k = 0; k < 5; ++k)
        EXPECT_EQ(samples[k], 0.0) << k;
    bool anyNonZero = false;
    for (std::size_t k = 5; k < 20; ++k)
        anyNonZero = anyNonZero || samples[k] != 0.0;
    EXPECT_TRUE(anyNonZero);
}

TEST(Disturbance, NoiseScalesWithAmplitude)
{
    Disturbance d;
    d.shape = DisturbanceShape::Noise;
    d.amplitude = 1.0;
    d.seed = 21;
    const auto unit = disturbanceSamples(d, 50);
    d.amplitude = 3.0;
    const auto scaled = disturbanceSamples(d, 50);
    for (std::size_t k = 0; k < 50; ++k)
        ASSERT_NEAR(scaled[k], 3.0 * unit[k], 1e-12) << k;
}

TEST(Disturbance, ZeroLengthYieldsEmptySignal)
{
    EXPECT_TRUE(disturbanceSamples({}, 0).empty());
}

} // namespace
} // namespace fault
} // namespace quetzal
