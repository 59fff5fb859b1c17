/**
 * @file
 * Tests for the bounded input buffer: capacity invariants, overflow
 * accounting, in-flight slot reservation, and the retag spawn path.
 */

#include <gtest/gtest.h>

#include "queueing/input_buffer.hpp"

namespace quetzal {
namespace queueing {
namespace {

InputRecord
record(std::uint64_t id, JobId job, bool interesting = false,
       Tick captureTick = 0)
{
    InputRecord r;
    r.id = id;
    r.jobId = job;
    r.interesting = interesting;
    r.captureTick = captureTick;
    r.enqueueTick = captureTick;
    return r;
}

TEST(InputBuffer, PushUntilFullThenOverflow)
{
    InputBuffer buffer(3);
    EXPECT_TRUE(buffer.tryPush(record(1, 0)));
    EXPECT_TRUE(buffer.tryPush(record(2, 0, true)));
    EXPECT_TRUE(buffer.tryPush(record(3, 0)));
    EXPECT_TRUE(buffer.full());
    EXPECT_FALSE(buffer.tryPush(record(4, 0, true)));
    EXPECT_FALSE(buffer.tryPush(record(5, 0, false)));
    EXPECT_EQ(buffer.overflows().total, 2u);
    EXPECT_EQ(buffer.overflows().interesting, 1u);
    EXPECT_EQ(buffer.size(), 3u);
}

TEST(InputBuffer, OccupancyFraction)
{
    InputBuffer buffer(10);
    EXPECT_DOUBLE_EQ(buffer.occupancyFraction(), 0.0);
    for (std::uint64_t i = 0; i < 5; ++i)
        buffer.tryPush(record(i, 0));
    EXPECT_DOUBLE_EQ(buffer.occupancyFraction(), 0.5);
}

TEST(InputBuffer, PerJobQueries)
{
    InputBuffer buffer(10);
    buffer.tryPush(record(1, 0, false, 100));
    buffer.tryPush(record(2, 1, false, 200));
    buffer.tryPush(record(3, 0, false, 300));
    EXPECT_EQ(buffer.countForJob(0), 2u);
    EXPECT_EQ(buffer.countForJob(1), 1u);
    EXPECT_EQ(buffer.countForJob(7), 0u);
    ASSERT_TRUE(buffer.oldestSlotForJob(0).has_value());
    EXPECT_EQ(buffer.record(*buffer.oldestSlotForJob(0)).id, 1u);
    EXPECT_EQ(buffer.record(*buffer.oldestSlotForJob(1)).id, 2u);
    EXPECT_FALSE(buffer.oldestSlotForJob(7).has_value());
}

TEST(InputBuffer, InFlightKeepsSlotButNotSchedulable)
{
    InputBuffer buffer(2);
    buffer.tryPush(record(1, 0));
    buffer.tryPush(record(2, 0));
    const InputRecord taken =
        buffer.markInFlight(*buffer.oldestSlotForJob(0));
    EXPECT_EQ(taken.id, 1u);
    // Slot still occupied: buffer remains full.
    EXPECT_TRUE(buffer.full());
    EXPECT_FALSE(buffer.tryPush(record(3, 0)));
    // But only record 2 is schedulable.
    EXPECT_EQ(buffer.countForJob(0), 1u);
    EXPECT_EQ(buffer.record(*buffer.oldestSlotForJob(0)).id, 2u);
    EXPECT_TRUE(buffer.hasSchedulable());
}

TEST(InputBuffer, ReleaseFreesSlot)
{
    InputBuffer buffer(2);
    buffer.tryPush(record(1, 0));
    buffer.tryPush(record(2, 0));
    const SlotId slot = *buffer.oldestSlotForJob(0);
    buffer.markInFlight(slot);
    buffer.releaseSlot(slot);
    EXPECT_EQ(buffer.size(), 1u);
    EXPECT_TRUE(buffer.tryPush(record(3, 0)));
}

TEST(InputBuffer, RetagNeverOverflows)
{
    InputBuffer buffer(2);
    buffer.tryPush(record(1, 0));
    buffer.tryPush(record(2, 0));
    const SlotId slot = *buffer.oldestSlotForJob(0);
    buffer.markInFlight(slot);
    // Spawn: retag for job 1 even though the buffer is full.
    buffer.retagSlot(slot, 1, 555);
    EXPECT_TRUE(buffer.full());
    EXPECT_EQ(buffer.overflows().total, 0u);
    ASSERT_TRUE(buffer.oldestSlotForJob(1).has_value());
    const auto &retagged = buffer.record(*buffer.oldestSlotForJob(1));
    EXPECT_EQ(retagged.id, 1u);
    EXPECT_EQ(retagged.enqueueTick, 555);
    EXPECT_FALSE(retagged.inFlight);
}

TEST(InputBuffer, HasSchedulableFalseWhenAllInFlight)
{
    InputBuffer buffer(2);
    buffer.tryPush(record(1, 0));
    buffer.markInFlight(*buffer.oldestSlotForJob(0));
    EXPECT_FALSE(buffer.hasSchedulable());
    EXPECT_FALSE(buffer.oldestSlotForJob(0).has_value());
}

TEST(InputBufferDeathTest, DoubleInFlightPanics)
{
    InputBuffer buffer(2);
    buffer.tryPush(record(1, 0));
    const SlotId slot = *buffer.oldestSlotForJob(0);
    buffer.markInFlight(slot);
    EXPECT_DEATH(buffer.markInFlight(slot), "in flight");
}

TEST(InputBufferDeathTest, ReleaseNotInFlightPanics)
{
    InputBuffer buffer(2);
    buffer.tryPush(record(1, 0));
    EXPECT_DEATH(buffer.releaseSlot(*buffer.oldestSlotForJob(0)),
                 "not in flight");
}

TEST(InputBufferDeathTest, RetagUnknownSlotPanics)
{
    InputBuffer buffer(2);
    buffer.tryPush(record(1, 0));
    buffer.markInFlight(*buffer.oldestSlotForJob(0));
    EXPECT_DEATH(buffer.retagSlot(99, 1, 0), "unknown slot");
}

} // namespace
} // namespace queueing
} // namespace quetzal
