/**
 * @file
 * Tests for the IBO-detection and reaction engine (paper Algorithm 2
 * with the backlog-drain horizon, DESIGN.md section 4): the admit()
 * half of the paper's "sjf-ibo" policy.
 */

#include <gtest/gtest.h>

#include "core_test_fixtures.hpp"
#include "policy/registry.hpp"

namespace quetzal {
namespace core {
namespace {

using testing_fixtures::makeSmallSystem;
using testing_fixtures::admitAt;
using testing_fixtures::pushInput;

/** Fill the arrival tracker to a steady rate of `stored` per capture. */
void
primeArrivals(TaskSystem &system, double rate, int periods = 64)
{
    for (int i = 0; i < periods; ++i) {
        const bool stored =
            (static_cast<double>(i % 100) / 100.0) < rate;
        system.recordCapture(stored);
    }
}

TEST(IboEngine, NoPressureKeepsFullQuality)
{
    auto s = makeSmallSystem();
    primeArrivals(*s.system, 0.1);
    queueing::InputBuffer buffer(10);
    pushInput(buffer, s, 1, 0, s.classifyJob);
    const auto ibo = policy::makePolicy("sjf-ibo");
    const auto decision =
        admitAt(*ibo, *s.system, s.system->job(s.classifyJob), buffer,
                {1.0, 255});
    EXPECT_FALSE(decision.iboPredicted);
    EXPECT_FALSE(decision.degraded);
    EXPECT_EQ(decision.optionPerTask, std::vector<std::size_t>{0});
    EXPECT_TRUE(decision.overflowAvoided);
}

TEST(IboEngine, UnsustainableRateForcesDegradation)
{
    auto s = makeSmallSystem();
    // Every capture stored: lambda = 1/s.
    primeArrivals(*s.system, 1.0);
    queueing::InputBuffer buffer(10);
    // A backlog of transmit inputs at 10 mW: radio-high needs
    // 80 mJ -> 8 s each; rho >> 1 at full quality. radio-low is
    // 0.5 s each: drain horizon 4 s < headroom 6 -> avoids.
    for (std::uint64_t i = 0; i < 4; ++i)
        pushInput(buffer, s, i, 0, s.transmitJob);
    const auto ibo = policy::makePolicy("sjf-ibo");
    const auto decision =
        admitAt(*ibo, *s.system, s.system->job(s.transmitJob), buffer,
                {10e-3, 0});
    EXPECT_TRUE(decision.iboPredicted);
    EXPECT_TRUE(decision.degraded);
    // radio-low: 5 mJ -> 0.5 s at 10 mW: sustainable, so it avoids.
    EXPECT_EQ(decision.optionPerTask, std::vector<std::size_t>{1});
    EXPECT_TRUE(decision.overflowAvoided);
}

TEST(IboEngine, PicksHighestQualityOptionThatAvoids)
{
    auto s = makeSmallSystem();
    primeArrivals(*s.system, 1.0);
    queueing::InputBuffer buffer(10);
    pushInput(buffer, s, 1, 0, s.transmitJob);
    const auto ibo = policy::makePolicy("sjf-ibo");
    // At 1 W even radio-high is compute-bound (0.8 s < 1 s arrival
    // period): full quality already avoids -> no degradation.
    const auto decision =
        admitAt(*ibo, *s.system, s.system->job(s.transmitJob), buffer,
                {1.0, 255});
    EXPECT_FALSE(decision.degraded);
    EXPECT_TRUE(decision.overflowAvoided);
}

TEST(IboEngine, FullBufferAlwaysPredicts)
{
    auto s = makeSmallSystem();
    primeArrivals(*s.system, 0.05); // nearly idle lambda
    queueing::InputBuffer buffer(3);
    for (std::uint64_t i = 0; i < 3; ++i)
        pushInput(buffer, s, i, 0, s.classifyJob);
    ASSERT_TRUE(buffer.full());
    const auto ibo = policy::makePolicy("sjf-ibo");
    const auto decision =
        admitAt(*ibo, *s.system, s.system->job(s.classifyJob), buffer,
                {1.0, 255});
    // Headroom zero: overflow predicted regardless of lambda, and no
    // option can avoid it -> fastest option chosen.
    EXPECT_TRUE(decision.iboPredicted);
    EXPECT_FALSE(decision.overflowAvoided);
    EXPECT_EQ(decision.optionPerTask, std::vector<std::size_t>{1});
}

TEST(IboEngine, FallbackPicksFastestWhenNothingAvoids)
{
    auto s = makeSmallSystem();
    primeArrivals(*s.system, 1.0);
    queueing::InputBuffer buffer(4);
    for (std::uint64_t i = 0; i < 4; ++i)
        pushInput(buffer, s, i, 0, s.transmitJob);
    const auto ibo = policy::makePolicy("sjf-ibo");
    // At 1 mW even radio-low (5 mJ -> 5 s) cannot keep up with
    // 1 arrival/s: nothing avoids, fastest option is still chosen.
    const auto decision =
        admitAt(*ibo, *s.system, s.system->job(s.transmitJob), buffer,
                {1e-3, 0});
    EXPECT_TRUE(decision.iboPredicted);
    EXPECT_FALSE(decision.overflowAvoided);
    EXPECT_EQ(decision.optionPerTask, std::vector<std::size_t>{1});
}

TEST(IboEngine, RemembersOtherTasksQuality)
{
    auto s = makeSmallSystem();
    primeArrivals(*s.system, 1.0);
    queueing::InputBuffer buffer(10);
    for (std::uint64_t i = 0; i < 3; ++i)
        pushInput(buffer, s, i, 0, s.transmitJob);
    pushInput(buffer, s, 10, 0, s.classifyJob);
    const auto ibo = policy::makePolicy("sjf-ibo");
    const PowerReading power{40e-3, 0};

    // First, the transmit decision degrades the radio (radio-high is
    // 2 s per entry at 40 mW: rho > 1).
    const auto radioDecision =
        admitAt(*ibo, *s.system, s.system->job(s.transmitJob), buffer, power);
    ASSERT_TRUE(radioDecision.degraded);

    // Now the classify decision prices the transmit backlog at the
    // degraded radio quality: ml-high (0.5 s at 40 mW) plus 3
    // radio-low (0.125 s each) drains fast, so ML stays full quality.
    const auto mlDecision =
        admitAt(*ibo, *s.system, s.system->job(s.classifyJob), buffer, power);
    EXPECT_FALSE(mlDecision.degraded);
}

TEST(IboEngine, RecoversQualityWhenPressureClears)
{
    auto s = makeSmallSystem();
    primeArrivals(*s.system, 1.0);
    queueing::InputBuffer buffer(10);
    for (std::uint64_t i = 0; i < 5; ++i)
        pushInput(buffer, s, i, 0, s.transmitJob);
    const auto ibo = policy::makePolicy("sjf-ibo");
    // Degrade under pressure at 10 mW...
    const auto pressured =
        admitAt(*ibo, *s.system, s.system->job(s.transmitJob), buffer,
                {10e-3, 0});
    EXPECT_TRUE(pressured.degraded);
    // ...then power returns and the backlog clears: full quality again.
    queueing::InputBuffer calm(10);
    pushInput(calm, s, 99, 0, s.transmitJob);
    const auto recovered =
        admitAt(*ibo, *s.system, s.system->job(s.transmitJob), calm,
                {1.0, 255});
    EXPECT_FALSE(recovered.degraded);
}

TEST(IboEngine, NonDegradableJobDetectsOnly)
{
    auto s = makeSmallSystem();
    const TaskId fixed = s.system->addTask("fixed", {{"only", 500,
                                                      10e-3}});
    const JobId fixedJob = s.system->addJob("fixed-job", {fixed});
    primeArrivals(*s.system, 1.0);
    queueing::InputBuffer buffer(2);
    pushInput(buffer, s, 1, 0, fixedJob);
    pushInput(buffer, s, 2, 0, fixedJob);
    const auto ibo = policy::makePolicy("sjf-ibo");
    const auto decision =
        admitAt(*ibo, *s.system, s.system->job(fixedJob), buffer, {1e-3, 0});
    EXPECT_TRUE(decision.iboPredicted);
    EXPECT_FALSE(decision.degraded);
    EXPECT_FALSE(decision.overflowAvoided);
}

} // namespace
} // namespace core
} // namespace quetzal
