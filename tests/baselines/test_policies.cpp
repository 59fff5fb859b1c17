/**
 * @file
 * Tests for the FCFS / LCFS comparison rank rules of RulePolicy.
 */

#include <gtest/gtest.h>

#include "../core/core_test_fixtures.hpp"
#include "policy/rules.hpp"

namespace quetzal {
namespace policy {
namespace {

using core::testing_fixtures::makeSmallSystem;
using core::testing_fixtures::pushInput;
using core::testing_fixtures::rankAt;

/** The paper's FCFS / LCFS orderings at full quality. */
const AdmitRule kFull{AdmitRule::Kind::FullQuality};

TEST(Fcfs, PicksOldestCapture)
{
    auto s = makeSmallSystem();
    queueing::InputBuffer buffer(10);
    // The oldest input waits in the classify lane, behind the
    // transmit lane in job order, so neither the first lane's head
    // nor the newest input is the FCFS choice.
    pushInput(buffer, s, 1, 100, s.classifyJob);
    pushInput(buffer, s, 2, 300, s.transmitJob);
    pushInput(buffer, s, 3, 500, s.classifyJob);
    RulePolicy fcfs(RankRule::Oldest, kFull);
    const auto decision = rankAt(fcfs, *s.system, buffer, {1.0, 255});
    ASSERT_TRUE(decision.has_value());
    EXPECT_EQ(buffer.record(decision->slot).id, 1u);
    EXPECT_EQ(decision->jobId, s.classifyJob);
}

TEST(Lcfs, PicksNewestCapture)
{
    auto s = makeSmallSystem();
    queueing::InputBuffer buffer(10);
    // The newest input sits in the transmit lane, ahead of the
    // classify lane in job order, so neither the last lane's tail
    // nor a lane head is the LCFS choice.
    pushInput(buffer, s, 1, 100, s.transmitJob);
    pushInput(buffer, s, 2, 300, s.classifyJob);
    pushInput(buffer, s, 3, 500, s.transmitJob);
    RulePolicy lcfs(RankRule::Newest, kFull);
    const auto decision = rankAt(lcfs, *s.system, buffer, {1.0, 255});
    ASSERT_TRUE(decision.has_value());
    EXPECT_EQ(buffer.record(decision->slot).id, 3u);
    EXPECT_EQ(decision->jobId, s.transmitJob);
}

TEST(Fcfs, SkipsInFlight)
{
    auto s = makeSmallSystem();
    queueing::InputBuffer buffer(10);
    pushInput(buffer, s, 1, 100, s.classifyJob);
    pushInput(buffer, s, 2, 200, s.classifyJob);
    buffer.markInFlight(*buffer.oldestSlotForJob(s.classifyJob));
    RulePolicy fcfs(RankRule::Oldest, kFull);
    const auto decision = rankAt(fcfs, *s.system, buffer, {1.0, 255});
    ASSERT_TRUE(decision.has_value());
    EXPECT_EQ(buffer.record(decision->slot).id, 2u);
}

TEST(Fcfs, EmptyAndAllInFlightGiveNothing)
{
    auto s = makeSmallSystem();
    queueing::InputBuffer buffer(10);
    RulePolicy fcfs(RankRule::Oldest, kFull);
    EXPECT_FALSE(rankAt(fcfs, *s.system, buffer, {1.0, 255}).has_value());
    pushInput(buffer, s, 1, 100, s.classifyJob);
    buffer.markInFlight(*buffer.oldestSlotForJob(s.classifyJob));
    EXPECT_FALSE(rankAt(fcfs, *s.system, buffer, {1.0, 255}).has_value());
}

TEST(Fcfs, ReportsExpectedServiceForBookkeeping)
{
    auto s = makeSmallSystem();
    queueing::InputBuffer buffer(10);
    pushInput(buffer, s, 1, 100, s.transmitJob);
    RulePolicy fcfs(RankRule::Oldest, kFull);
    const auto decision = rankAt(fcfs, *s.system, buffer, {1.0, 255});
    ASSERT_TRUE(decision.has_value());
    EXPECT_NEAR(decision->expectedServiceSeconds, 0.8, 1e-9);
}

} // namespace
} // namespace policy
} // namespace quetzal
