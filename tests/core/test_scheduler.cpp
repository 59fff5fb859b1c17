/**
 * @file
 * Tests for Energy-aware SJF (paper Algorithm 1): the rank() half of
 * the paper's "sjf-ibo" policy.
 */

#include <gtest/gtest.h>

#include "core_test_fixtures.hpp"
#include "policy/registry.hpp"

namespace quetzal {
namespace core {
namespace {

using testing_fixtures::makeSmallSystem;
using testing_fixtures::pushInput;
using testing_fixtures::rankAt;

TEST(EnergyAwareSjf, EmptyBufferGivesNothing)
{
    auto s = makeSmallSystem();
    queueing::InputBuffer buffer(10);
    const auto sjf = policy::makePolicy("sjf-ibo");
    EXPECT_FALSE(rankAt(*sjf, *s.system, buffer, {10e-3, 0}).has_value());
}

TEST(EnergyAwareSjf, PicksShortestJobAtHighPower)
{
    auto s = makeSmallSystem();
    queueing::InputBuffer buffer(10);
    pushInput(buffer, s, 1, 100, s.classifyJob);
    pushInput(buffer, s, 2, 200, s.transmitJob);
    const auto sjf = policy::makePolicy("sjf-ibo");
    // At 1 W everything is compute bound: ml-high 1.0 s vs
    // radio-high 0.8 s -> transmit wins.
    const auto decision = rankAt(*sjf, *s.system, buffer, {1.0, 255});
    ASSERT_TRUE(decision.has_value());
    EXPECT_EQ(decision->jobId, s.transmitJob);
    EXPECT_NEAR(decision->expectedServiceSeconds, 0.8, 1e-9);
}

TEST(EnergyAwareSjf, PowerFlipsTheWinner)
{
    auto s = makeSmallSystem();
    queueing::InputBuffer buffer(10);
    pushInput(buffer, s, 1, 100, s.classifyJob);
    pushInput(buffer, s, 2, 200, s.transmitJob);
    const auto sjf = policy::makePolicy("sjf-ibo");
    // At 25 mW: ml-high stays compute-bound (1.0 s; 20 mJ needs only
    // 0.8 s of harvesting) while radio-high becomes energy-bound
    // (80 mJ -> 3.2 s): classify wins. Same buffer state, different
    // winner — the heart of *energy-aware* SJF.
    const auto decision = rankAt(*sjf, *s.system, buffer, {25e-3, 0});
    ASSERT_TRUE(decision.has_value());
    EXPECT_EQ(decision->jobId, s.classifyJob);
    EXPECT_NEAR(decision->expectedServiceSeconds, 1.0, 1e-9);
}

TEST(EnergyAwareSjf, TieBreaksTowardOlderInput)
{
    auto s = makeSmallSystem();
    // Make two jobs cost exactly the same: two classify-style jobs
    // over the same task.
    const JobId other = s.system->addJob("classify2", {s.mlTask});
    queueing::InputBuffer buffer(10);
    // The older input waits for the job ranked later in job order,
    // so only the capture-time tie-break can pick it.
    pushInput(buffer, s, 1, 100, other);
    pushInput(buffer, s, 2, 500, s.classifyJob);
    const auto sjf = policy::makePolicy("sjf-ibo");
    const auto decision = rankAt(*sjf, *s.system, buffer, {1.0, 255});
    ASSERT_TRUE(decision.has_value());
    EXPECT_EQ(decision->jobId, other);
}

TEST(EnergyAwareSjf, SelectsOldestInputOfChosenJob)
{
    auto s = makeSmallSystem();
    queueing::InputBuffer buffer(10);
    pushInput(buffer, s, 1, 100, s.classifyJob);
    pushInput(buffer, s, 2, 300, s.classifyJob);
    const auto sjf = policy::makePolicy("sjf-ibo");
    const auto decision = rankAt(*sjf, *s.system, buffer, {1.0, 255});
    ASSERT_TRUE(decision.has_value());
    // oldestSlotForJob returns the lane head, not its tail.
    EXPECT_EQ(buffer.record(decision->slot).id, 1u);
}

TEST(EnergyAwareSjf, PidCorrectionAddsUniformly)
{
    auto s = makeSmallSystem();
    queueing::InputBuffer buffer(10);
    pushInput(buffer, s, 1, 100, s.classifyJob);
    const auto sjf = policy::makePolicy("sjf-ibo");
    const auto base = rankAt(*sjf, *s.system, buffer, {1.0, 255});
    const auto corrected = rankAt(*sjf, *s.system, buffer, {1.0, 255}, 2.5);
    ASSERT_TRUE(base && corrected);
    EXPECT_NEAR(corrected->expectedServiceSeconds,
                base->expectedServiceSeconds + 2.5, 1e-9);
}

TEST(EnergyAwareSjf, NegativeCorrectionClampsAtZero)
{
    auto s = makeSmallSystem();
    queueing::InputBuffer buffer(10);
    pushInput(buffer, s, 1, 100, s.classifyJob);
    const auto sjf = policy::makePolicy("sjf-ibo");
    const auto decision = rankAt(*sjf, *s.system, buffer, {1.0, 255}, -100.0);
    ASSERT_TRUE(decision.has_value());
    EXPECT_GE(decision->expectedServiceSeconds, 0.0);
}

TEST(EnergyAwareSjf, SkipsInFlightInputs)
{
    auto s = makeSmallSystem();
    queueing::InputBuffer buffer(10);
    pushInput(buffer, s, 1, 100, s.classifyJob);
    buffer.markInFlight(*buffer.oldestSlotForJob(s.classifyJob));
    const auto sjf = policy::makePolicy("sjf-ibo");
    EXPECT_FALSE(rankAt(*sjf, *s.system, buffer, {1.0, 255}).has_value());
}

} // namespace
} // namespace core
} // namespace quetzal
