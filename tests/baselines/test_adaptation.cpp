/**
 * @file
 * Tests for the baselines' admit rules of RulePolicy (NoAdapt,
 * AlwaysDegrade, buffer threshold / CatNap, power threshold /
 * ZGO-ZGI).
 */

#include <gtest/gtest.h>

#include "../core/core_test_fixtures.hpp"
#include "policy/rules.hpp"

namespace quetzal {
namespace policy {
namespace {

using core::testing_fixtures::admitAt;
using core::testing_fixtures::makeSmallSystem;
using core::testing_fixtures::pushInput;

/** A FCFS RulePolicy admitting by `kind` at `threshold`. */
RulePolicy
fcfs(AdmitRule::Kind kind, double threshold = 0.0)
{
    return RulePolicy(RankRule::Oldest, AdmitRule{kind, threshold});
}

TEST(NoAdapt, AlwaysFullQuality)
{
    auto s = makeSmallSystem();
    queueing::InputBuffer buffer(2);
    pushInput(buffer, s, 1, 0, s.classifyJob);
    pushInput(buffer, s, 2, 0, s.classifyJob); // buffer full
    RulePolicy policy = fcfs(AdmitRule::Kind::FullQuality);
    const auto decision =
        admitAt(policy, *s.system, s.system->job(s.classifyJob), buffer,
                {1e-6, 0});
    EXPECT_EQ(decision.optionPerTask, std::vector<std::size_t>{0});
    EXPECT_FALSE(decision.degraded);
}

TEST(AlwaysDegrade, AlwaysLowestQuality)
{
    auto s = makeSmallSystem();
    queueing::InputBuffer buffer(10);
    pushInput(buffer, s, 1, 0, s.transmitJob);
    RulePolicy policy = fcfs(AdmitRule::Kind::LowestQuality);
    const auto decision =
        admitAt(policy, *s.system, s.system->job(s.transmitJob), buffer,
                {1.0, 255});
    EXPECT_EQ(decision.optionPerTask, std::vector<std::size_t>{1});
    EXPECT_TRUE(decision.degraded);
}

TEST(BufferThreshold, DegradesAboveThresholdOnly)
{
    auto s = makeSmallSystem();
    RulePolicy policy = fcfs(AdmitRule::Kind::BufferThreshold, 0.5);
    queueing::InputBuffer buffer(10);
    for (std::uint64_t i = 0; i < 4; ++i)
        pushInput(buffer, s, i, 0, s.classifyJob);
    // 40 % occupancy: below threshold.
    auto decision =
        admitAt(policy, *s.system, s.system->job(s.classifyJob), buffer,
                {1.0, 255});
    EXPECT_FALSE(decision.degraded);
    pushInput(buffer, s, 10, 0, s.classifyJob);
    // 50 % occupancy: at threshold -> degrade.
    decision =
        admitAt(policy, *s.system, s.system->job(s.classifyJob), buffer,
                {1.0, 255});
    EXPECT_TRUE(decision.degraded);
    EXPECT_EQ(decision.optionPerTask, std::vector<std::size_t>{1});
}

TEST(BufferThreshold, CatNapIsHundredPercent)
{
    auto s = makeSmallSystem();
    RulePolicy catnap = fcfs(AdmitRule::Kind::BufferThreshold, 1.0);
    queueing::InputBuffer buffer(2);
    pushInput(buffer, s, 1, 0, s.classifyJob);
    auto decision =
        admitAt(catnap, *s.system, s.system->job(s.classifyJob), buffer,
                {1e-6, 0});
    EXPECT_FALSE(decision.degraded); // half full: CatNap sleeps on it
    pushInput(buffer, s, 2, 0, s.classifyJob);
    decision =
        admitAt(catnap, *s.system, s.system->job(s.classifyJob), buffer,
                {1e-6, 0});
    EXPECT_TRUE(decision.degraded); // only reacts when already full
}

TEST(BufferThreshold, NameCarriesPercent)
{
    EXPECT_EQ(fcfs(AdmitRule::Kind::BufferThreshold, 0.25).name(),
              "fcfs-buffer-25%");
    EXPECT_EQ(fcfs(AdmitRule::Kind::BufferThreshold, 0.75).name(),
              "fcfs-buffer-75%");
}

TEST(PowerThreshold, DegradesBelowThreshold)
{
    auto s = makeSmallSystem();
    RulePolicy policy = fcfs(AdmitRule::Kind::PowerThreshold, 20e-3);
    queueing::InputBuffer buffer(10);
    pushInput(buffer, s, 1, 0, s.transmitJob);
    // Above the threshold: full quality, even with a filling buffer.
    auto decision =
        admitAt(policy, *s.system, s.system->job(s.transmitJob), buffer,
                {25e-3, 0});
    EXPECT_FALSE(decision.degraded);
    // Below the threshold: degrade, even with an empty-ish buffer —
    // the unnecessary degradation the paper criticizes.
    decision =
        admitAt(policy, *s.system, s.system->job(s.transmitJob), buffer,
                {15e-3, 0});
    EXPECT_TRUE(decision.degraded);
    EXPECT_EQ(policy.name(), "fcfs-power-threshold");
}

TEST(PowerThreshold, ZgoDatasheetThresholdDegradesAlmostAlways)
{
    auto s = makeSmallSystem();
    // Datasheet-derived threshold far above any real input power.
    RulePolicy zgo = fcfs(AdmitRule::Kind::PowerThreshold, 70e-3);
    queueing::InputBuffer buffer(10);
    pushInput(buffer, s, 1, 0, s.transmitJob);
    for (double mw : {1.0, 5.0, 15.0, 30.0, 60.0}) {
        const auto decision =
            admitAt(zgo, *s.system, s.system->job(s.transmitJob), buffer,
                    {mw * 1e-3, 0});
        EXPECT_TRUE(decision.degraded) << mw << " mW";
    }
}

TEST(AdaptationDeathTest, InvalidThresholdsFatal)
{
    EXPECT_EXIT(fcfs(AdmitRule::Kind::BufferThreshold, 0.0),
                ::testing::ExitedWithCode(1), "threshold");
    EXPECT_EXIT(fcfs(AdmitRule::Kind::BufferThreshold, 1.5),
                ::testing::ExitedWithCode(1), "threshold");
    EXPECT_EXIT(fcfs(AdmitRule::Kind::PowerThreshold, -1.0),
                ::testing::ExitedWithCode(1), "threshold");
}

} // namespace
} // namespace policy
} // namespace quetzal
