/**
 * @file
 * Tests for the lambda and execution-probability trackers.
 */

#include <gtest/gtest.h>

#include "queueing/rate_tracker.hpp"

namespace quetzal {
namespace queueing {
namespace {

TEST(ArrivalRateTracker, ConservativeBeforeObservations)
{
    ArrivalRateTracker tracker(256, 1.0);
    EXPECT_DOUBLE_EQ(tracker.arrivalsPerSecond(), 1.0);
}

TEST(ArrivalRateTracker, TracksStoredFraction)
{
    ArrivalRateTracker tracker(8, 1.0);
    for (int i = 0; i < 4; ++i)
        tracker.recordCapture(true);
    for (int i = 0; i < 4; ++i)
        tracker.recordCapture(false);
    EXPECT_DOUBLE_EQ(tracker.insertionsPerPeriod(), 0.5);
    EXPECT_DOUBLE_EQ(tracker.arrivalsPerSecond(), 0.5);
}

TEST(ArrivalRateTracker, ScalesWithCaptureRate)
{
    ArrivalRateTracker tracker(8, 4.0); // 4 captures per second
    for (int i = 0; i < 8; ++i)
        tracker.recordCapture(i % 2 == 0);
    EXPECT_DOUBLE_EQ(tracker.arrivalsPerSecond(), 2.0);
}

TEST(ArrivalRateTracker, SpawnsCountAsArrivals)
{
    ArrivalRateTracker tracker(4, 1.0);
    // Every capture stored, plus one spawn per capture: two arrivals
    // per period.
    for (int i = 0; i < 4; ++i) {
        tracker.recordCapture(true);
        tracker.recordInsertion();
    }
    EXPECT_DOUBLE_EQ(tracker.arrivalsPerSecond(), 2.0);
}

TEST(ArrivalRateTracker, WindowEvictsOldPeriods)
{
    ArrivalRateTracker tracker(4, 1.0);
    for (int i = 0; i < 4; ++i)
        tracker.recordCapture(true);
    EXPECT_DOUBLE_EQ(tracker.arrivalsPerSecond(), 1.0);
    for (int i = 0; i < 4; ++i)
        tracker.recordCapture(false);
    EXPECT_DOUBLE_EQ(tracker.arrivalsPerSecond(), 0.0);
}

TEST(ArrivalRateTracker, LagBoundedByWindow)
{
    // After a burst starts, the estimate converges within one window.
    ArrivalRateTracker tracker(16, 1.0);
    for (int i = 0; i < 64; ++i)
        tracker.recordCapture(false);
    for (int i = 0; i < 16; ++i)
        tracker.recordCapture(true);
    EXPECT_DOUBLE_EQ(tracker.arrivalsPerSecond(), 1.0);
}

TEST(ExecutionProbabilityTracker, ConservativeDefault)
{
    ExecutionProbabilityTracker tracker(64);
    EXPECT_DOUBLE_EQ(tracker.probability(), 1.0);
}

TEST(ExecutionProbabilityTracker, TracksFraction)
{
    ExecutionProbabilityTracker tracker(8);
    for (int i = 0; i < 6; ++i)
        tracker.recordExecution(i < 3);
    EXPECT_DOUBLE_EQ(tracker.probability(), 0.5);
}

TEST(ExecutionProbabilityTracker, SlidesWithWindow)
{
    ExecutionProbabilityTracker tracker(4);
    for (int i = 0; i < 4; ++i)
        tracker.recordExecution(true);
    for (int i = 0; i < 4; ++i)
        tracker.recordExecution(false);
    EXPECT_DOUBLE_EQ(tracker.probability(), 0.0);
}

} // namespace
} // namespace queueing
} // namespace quetzal
