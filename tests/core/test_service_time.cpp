/**
 * @file
 * Tests for the service-time estimators: Eq. (1) scaling and the
 * power-blind averaging baseline.
 */

#include <gtest/gtest.h>

#include "core/service_time.hpp"
#include "core/system.hpp"

namespace quetzal {
namespace core {
namespace {

DegradationOption
makeOption(Tick exeTicks, Watts power, std::uint8_t code)
{
    DegradationOption opt;
    opt.name = "opt";
    opt.exeTicks = exeTicks;
    opt.execPower = power;
    opt.hwProfile = hw::RatioEngine::makeProfile(exeTicks, code);
    return opt;
}

TEST(EnergyAwareEstimator, ExactComputeBound)
{
    EnergyAwareEstimator exact(false);
    const auto opt = makeOption(500, 10e-3, 150);
    // Input power above execution power: latency only.
    EXPECT_DOUBLE_EQ(exact.estimate(opt, {20e-3, 0}), 0.5);
}

TEST(EnergyAwareEstimator, ExactEnergyBound)
{
    EnergyAwareEstimator exact(false);
    const auto opt = makeOption(500, 10e-3, 150);
    // 5 mJ at 1 mW: 5 seconds.
    EXPECT_DOUBLE_EQ(exact.estimate(opt, {1e-3, 0}), 5.0);
}

TEST(EnergyAwareEstimator, ExactZeroPowerIsHuge)
{
    EnergyAwareEstimator exact(false);
    const auto opt = makeOption(500, 10e-3, 150);
    EXPECT_GE(exact.estimate(opt, {0.0, 0}), 1e8);
}

TEST(EnergyAwareEstimator, CircuitPathUsesCodes)
{
    EnergyAwareEstimator circuit(true);
    const auto opt = makeOption(500, 10e-3, 150);
    // delta 8 -> ratio 2.
    EXPECT_DOUBLE_EQ(circuit.estimate(opt, {0.0, 142}), 1.0);
    // delta 0 / input above: latency.
    EXPECT_DOUBLE_EQ(circuit.estimate(opt, {0.0, 150}), 0.5);
    EXPECT_DOUBLE_EQ(circuit.estimate(opt, {0.0, 200}), 0.5);
}

TEST(EnergyAwareEstimator, Names)
{
    EXPECT_EQ(EnergyAwareEstimator(true).name(),
              "energy-aware(circuit)");
    EXPECT_EQ(EnergyAwareEstimator(false).name(),
              "energy-aware(exact)");
}

TEST(AverageEstimator, FallsBackToLatency)
{
    AverageServiceTimeEstimator avg;
    const auto opt = makeOption(500, 10e-3, 150);
    EXPECT_DOUBLE_EQ(avg.estimate(opt, {1e-3, 0}), 0.5);
}

TEST(AverageEstimator, UsesObservedMean)
{
    AverageServiceTimeEstimator avg;
    const auto opt = makeOption(500, 10e-3, 150);
    avg.recordObservation(opt, 2.0);
    avg.recordObservation(opt, 4.0);
    EXPECT_DOUBLE_EQ(avg.estimate(opt, {1e-3, 0}), 3.0);
}

TEST(AverageEstimator, BlindToPower)
{
    AverageServiceTimeEstimator avg;
    const auto opt = makeOption(500, 10e-3, 150);
    avg.recordObservation(opt, 7.0);
    // Identical estimates regardless of input power: the flaw the
    // paper's section 7.3 sensitivity study demonstrates.
    EXPECT_DOUBLE_EQ(avg.estimate(opt, {1e-6, 0}),
                     avg.estimate(opt, {1.0, 255}));
}

TEST(AverageEstimator, DistinctOptionsTrackedSeparately)
{
    AverageServiceTimeEstimator avg;
    const auto high = makeOption(500, 10e-3, 150);
    const auto low = makeOption(100, 5e-3, 140);
    avg.recordObservation(high, 9.0);
    EXPECT_DOUBLE_EQ(avg.estimate(low, {1e-3, 0}), 0.1);
}

} // namespace
} // namespace core
} // namespace quetzal
