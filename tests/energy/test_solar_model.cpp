/**
 * @file
 * Tests for the synthetic solar irradiance generator — the properties
 * the Quetzal evaluation depends on (DESIGN.md section 2).
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "energy/solar_model.hpp"

namespace quetzal {
namespace energy {
namespace {

SolarConfig
testConfig()
{
    SolarConfig cfg;
    cfg.seed = 99;
    return cfg;
}

TEST(SolarModel, Deterministic)
{
    const Tick twoDays = secondsToTicks(2 * 86400.0);
    const PowerTrace a = SolarModel(testConfig()).generate(twoDays);
    const PowerTrace b = SolarModel(testConfig()).generate(twoDays);
    ASSERT_EQ(a.segmentCount(), b.segmentCount());
    for (std::size_t i = 0; i < a.segmentCount(); ++i) {
        EXPECT_EQ(a.data()[i].start, b.data()[i].start);
        EXPECT_EQ(a.data()[i].value, b.data()[i].value);
    }
}

TEST(SolarModel, SeedChangesClouds)
{
    const Tick day = secondsToTicks(86400.0);
    SolarConfig other = testConfig();
    other.seed = 100;
    const PowerTrace a = SolarModel(testConfig()).generate(day);
    const PowerTrace b = SolarModel(other).generate(day);
    bool anyDifferent = false;
    for (Tick t = 0; t < day; t += secondsToTicks(600.0))
        anyDifferent = anyDifferent || a.valueAt(t) != b.valueAt(t);
    EXPECT_TRUE(anyDifferent);
}

TEST(SolarModel, BoundsRespected)
{
    const SolarConfig cfg = testConfig();
    const Tick twoDays = secondsToTicks(2 * 86400.0);
    const PowerTrace trace = SolarModel(cfg).generate(twoDays);
    for (const auto &segment : trace.data())
        ASSERT_GE(segment.value, cfg.ambientFloor - 1e-12);
    EXPECT_LE(trace.maxValue(), cfg.peakIrradiance + 1e-12);
}

TEST(SolarModel, NightFallsToFloor)
{
    const SolarConfig cfg = testConfig();
    const Tick twoDays = secondsToTicks(2 * 86400.0);
    const PowerTrace trace = SolarModel(cfg).generate(twoDays);
    // The trace starts at 6 am; midnight is 18 h in.
    const Tick midnight = secondsToTicks(18.0 * 3600.0);
    EXPECT_NEAR(trace.valueAt(midnight), cfg.ambientFloor, 1e-9);
}

TEST(SolarModel, MiddayAboveNight)
{
    const SolarConfig cfg = testConfig();
    const Tick twoDays = secondsToTicks(2 * 86400.0);
    const PowerTrace trace = SolarModel(cfg).generate(twoDays);
    const Tick noon = secondsToTicks(6.0 * 3600.0); // 6 h after 6 am
    const Tick midnight = secondsToTicks(18.0 * 3600.0);
    EXPECT_GT(trace.valueAt(noon), 5.0 * trace.valueAt(midnight));
}

TEST(SolarModel, CloudsCreateIntraDayVariation)
{
    const SolarConfig cfg = testConfig();
    const PowerTrace trace =
        SolarModel(cfg).generate(secondsToTicks(86400.0));
    // Sample the middle of the day; clouds should produce meaningful
    // spread relative to the clear-sky arc.
    double lo = 1.0;
    double hi = 0.0;
    for (double hour = 4.0; hour <= 8.0; hour += 0.05) {
        const double v = trace.valueAt(secondsToTicks(hour * 3600.0));
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    EXPECT_GT(hi, lo * 1.2);
}

TEST(SolarModel, DatasheetMaxRarelyApproached)
{
    // The property that defeats the ZGO baseline (section 6.1): real
    // traces sit well below the rated maximum (irradiance 1.0).
    const SolarConfig cfg = testConfig();
    const PowerTrace trace =
        SolarModel(cfg).generate(secondsToTicks(5 * 86400.0));
    EXPECT_LT(trace.maxValue(), 0.7);
}

TEST(SolarModelDeathTest, InvalidConfigIsFatal)
{
    SolarConfig bad = testConfig();
    bad.sampleSeconds = 0.0;
    EXPECT_EXIT(SolarModel{bad}, ::testing::ExitedWithCode(1), "sample");
}

} // namespace
} // namespace energy
} // namespace quetzal
