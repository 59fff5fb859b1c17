/**
 * @file
 * Tests for the bounded input buffer: capacity invariants, overflow
 * accounting, in-flight slot reservation, the retag spawn path, and
 * the checkpoint state codec's refusal of records that a re-push
 * would reject.
 */

#include <gtest/gtest.h>

#include <string>

#include "queueing/input_buffer.hpp"
#include "util/wire.hpp"

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

TEST(InputBuffer, NothingSchedulableWhenAllInFlight)
{
    InputBuffer buffer(2);
    buffer.tryPush(record(1, 0));
    buffer.markInFlight(*buffer.oldestSlotForJob(0));
    EXPECT_FALSE(buffer.oldestSchedulable().has_value());
    EXPECT_FALSE(buffer.newestSchedulable().has_value());
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

TEST(InputBufferDeathTest, RepeatedIdPanicsNamingBothIds)
{
    InputBuffer buffer(4);
    buffer.tryPush(record(5, 0));
    EXPECT_DEATH(buffer.tryPush(record(5, 0)),
                 "input id 5 is not above the last pushed id 5");
    // Also once the id's first holder has left the buffer, and for an
    // id below the last one pushed.
    const SlotId slot = *buffer.oldestSlotForJob(0);
    buffer.markInFlight(slot);
    buffer.releaseSlot(slot);
    EXPECT_DEATH(buffer.tryPush(record(5, 0)),
                 "input id 5 is not above the last pushed id 5");
    EXPECT_DEATH(buffer.tryPush(record(3, 0)),
                 "input id 3 is not above the last pushed id 5");
}

TEST(InputBufferDeathTest, DecreasingCaptureTickPanicsNamingBothTicks)
{
    InputBuffer buffer(4);
    buffer.tryPush(record(1, 0, false, 200));
    EXPECT_TRUE(buffer.tryPush(record(2, 0, false, 200)));
    EXPECT_DEATH(buffer.tryPush(record(3, 0, false, 100)),
                 "input capture tick 100 precedes the last pushed capture "
                 "tick 200");
}

std::string
encode(InputBuffer::State state)
{
    std::string out;
    util::wire::Archive ar(out);
    state.walk(ar);
    return out;
}

/** Load `bytes`; the failing section, or "" when the whole blob loads. */
std::string
loadFailure(const std::string &bytes, InputBuffer::State &state)
{
    util::wire::Archive ar{util::wire::Reader(bytes)};
    state.walk(ar);
    if (ar.loaded())
        return "";
    return ar.ok() ? "trailing bytes" : ar.failure();
}

std::string
loadFailure(const InputBuffer::State &state)
{
    InputBuffer::State loaded;
    return loadFailure(encode(state), loaded);
}

/**
 * A quiescent buffer's snapshot: ids 3 and 7 resident (captured at
 * ticks 20 and 30), id 8 taken and released, so the push history
 * (last id 8, last capture tick 40) lies past the newest record.
 */
InputBuffer::State
snapshotWithHistory()
{
    InputBuffer buffer(4);
    buffer.tryPush(record(3, 0, true, 20));
    buffer.tryPush(record(7, 1, false, 30));
    buffer.tryPush(record(8, 0, false, 40));
    const SlotId taken = *buffer.newestSchedulable();
    buffer.markInFlight(taken);
    buffer.releaseSlot(taken);
    return buffer.exportState();
}

TEST(InputBufferState, RoundTripsRecordsAndPushHistory)
{
    const InputBuffer::State original = snapshotWithHistory();
    ASSERT_EQ(original.records.size(), 2u);
    EXPECT_EQ(original.maxPushedId, 8u);
    EXPECT_EQ(original.lastPushCaptureTick, 40);

    const std::string bytes = encode(original);
    InputBuffer::State loaded;
    ASSERT_EQ(loadFailure(bytes, loaded), "");
    InputBuffer restored(4);
    restored.importState(loaded);
    EXPECT_EQ(encode(restored.exportState()), bytes);
    EXPECT_TRUE(restored.tryPush(record(9, 0, false, 40)));
}

TEST(InputBufferState, PushHistoryEndsWithAnyPushThenCaptureTick)
{
    std::string bytes = encode(snapshotWithHistory());
    // Tail: the anyPush flag, then the one-byte zigzag of capture
    // tick 40.
    const std::size_t anyPush = bytes.size() - 2;
    EXPECT_EQ(bytes[anyPush], '\x01');
    EXPECT_EQ(bytes.back(), '\x50');
    bytes[anyPush] = '\x02';
    InputBuffer::State loaded;
    EXPECT_EQ(loadFailure(bytes, loaded), "buffer counters");
}

TEST(InputBufferState, LoadRefusesRepeatedRecordId)
{
    InputBuffer::State state = snapshotWithHistory();
    state.records[1].id = state.records[0].id;
    EXPECT_EQ(loadFailure(state), "buffer record order");
}

TEST(InputBufferState, LoadRefusesDecreasingRecordIds)
{
    InputBuffer::State state = snapshotWithHistory();
    state.records[0].id = 5;
    state.records[1].id = 4;
    EXPECT_EQ(loadFailure(state), "buffer record order");
}

TEST(InputBufferState, LoadRefusesDecreasingCaptureTicks)
{
    InputBuffer::State state = snapshotWithHistory();
    state.records[1].captureTick = state.records[0].captureTick - 1;
    EXPECT_EQ(loadFailure(state), "buffer record order");
    // Equal ticks are a valid push order.
    state.records[1].captureTick = state.records[0].captureTick;
    EXPECT_EQ(loadFailure(state), "");
}

TEST(InputBufferState, LoadRefusesRecordIdPastLastPushedId)
{
    InputBuffer::State state = snapshotWithHistory();
    state.records.back().id = state.maxPushedId + 1;
    EXPECT_EQ(loadFailure(state), "buffer record past push history");
    state.records.back().id = state.maxPushedId;
    EXPECT_EQ(loadFailure(state), "");
}

TEST(InputBufferState, LoadRefusesRecordCapturedAfterLastPush)
{
    InputBuffer::State state = snapshotWithHistory();
    state.records.back().captureTick = state.lastPushCaptureTick + 1;
    EXPECT_EQ(loadFailure(state), "buffer record past push history");
}

TEST(InputBufferState, LoadRefusesRecordsWithoutPushHistory)
{
    InputBuffer::State state = snapshotWithHistory();
    state.anyPush = false;
    EXPECT_EQ(loadFailure(state), "buffer record past push history");
    state.records.clear();
    EXPECT_EQ(loadFailure(state), "");
}

} // namespace
} // namespace queueing
} // namespace quetzal
