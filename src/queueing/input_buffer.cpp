#include "queueing/input_buffer.hpp"

#include "util/logging.hpp"
#include "util/wire.hpp"

namespace quetzal {
namespace queueing {

InputBuffer::InputBuffer(std::size_t capacity) : cap(capacity)
{
    if (capacity == 0)
        util::panic("InputBuffer capacity must be positive");
    // Slots are allocated lazily as occupancy actually grows, so an
    // "infinite" capacity costs memory proportional to the occupancy
    // high-water mark, not to the configured bound.
}

double
InputBuffer::occupancyFraction() const
{
    return static_cast<double>(size()) / static_cast<double>(capacity());
}

SlotId
InputBuffer::allocateSlot()
{
    if (!freeSlots.empty()) {
        const SlotId slot = freeSlots.back();
        freeSlots.pop_back();
        return slot;
    }
    slots.emplace_back();
    return static_cast<SlotId>(slots.size() - 1);
}

InputBuffer::Lane &
InputBuffer::laneFor(JobId job)
{
    if (job >= lanes.size())
        lanes.resize(static_cast<std::size_t>(job) + 1);
    return lanes[job];
}

void
InputBuffer::laneAppend(JobId job, SlotId slot)
{
    Lane &lane = laneFor(job);
    Slot &s = slots[slot];
    s.prevLane = lane.tail;
    s.nextLane = kNoSlot;
    if (lane.tail != kNoSlot)
        slots[lane.tail].nextLane = slot;
    else
        lane.head = slot;
    lane.tail = slot;
    ++lane.count;
    ++schedulableCount;
}

void
InputBuffer::laneInsertOrdered(JobId job, SlotId slot)
{
    // Lanes are kept in arrival order. The runtime consumes each
    // lane oldest-first, so a retagged record almost always carries
    // the largest arrivalSeq seen by its new lane and the backward
    // walk stops immediately — amortized O(1).
    Lane &lane = laneFor(job);
    SlotId after = lane.tail;
    const std::uint64_t seq = slots[slot].arrivalSeq;
    while (after != kNoSlot && slots[after].arrivalSeq > seq)
        after = slots[after].prevLane;

    Slot &s = slots[slot];
    s.prevLane = after;
    if (after == kNoSlot) {
        s.nextLane = lane.head;
        if (lane.head != kNoSlot)
            slots[lane.head].prevLane = slot;
        lane.head = slot;
    } else {
        s.nextLane = slots[after].nextLane;
        if (slots[after].nextLane != kNoSlot)
            slots[slots[after].nextLane].prevLane = slot;
        slots[after].nextLane = slot;
    }
    if (s.nextLane == kNoSlot)
        lane.tail = slot;
    ++lane.count;
    ++schedulableCount;
}

void
InputBuffer::laneRemove(JobId job, SlotId slot)
{
    Lane &lane = lanes[job];
    Slot &s = slots[slot];
    if (s.prevLane != kNoSlot)
        slots[s.prevLane].nextLane = s.nextLane;
    else
        lane.head = s.nextLane;
    if (s.nextLane != kNoSlot)
        slots[s.nextLane].prevLane = s.prevLane;
    else
        lane.tail = s.prevLane;
    s.prevLane = kNoSlot;
    s.nextLane = kNoSlot;
    --lane.count;
    --schedulableCount;
}

bool
InputBuffer::tryPush(const InputRecord &record)
{
    if (record.inFlight)
        util::panic("cannot push an in-flight record");
    if (full()) {
        ++overflowCounts.total;
        if (record.interesting)
            ++overflowCounts.interesting;
        return false;
    }
    // Every program push carries a fresh counter id and a capture no
    // earlier than the last one, so arrival order is capture order and
    // no resident record can share the id.
    if (anyPush && record.id <= maxPushedId)
        util::panic(util::msg("input id ", record.id,
                              " is not above the last pushed id ",
                              maxPushedId));
    if (anyPush && record.captureTick < lastPushCaptureTick)
        util::panic(util::msg("input capture tick ", record.captureTick,
                              " precedes the last pushed capture tick ",
                              lastPushCaptureTick));
    anyPush = true;
    maxPushedId = record.id;
    lastPushCaptureTick = record.captureTick;

    const SlotId slot = allocateSlot();
    Slot &s = slots[slot];
    s.rec = record;
    s.arrivalSeq = nextArrivalSeq++;
    s.occupied = true;

    // Append to the global FIFO.
    s.prevFifo = fifoTail;
    s.nextFifo = kNoSlot;
    if (fifoTail != kNoSlot)
        slots[fifoTail].nextFifo = slot;
    else
        fifoHead = slot;
    fifoTail = slot;

    laneAppend(record.jobId, slot);
    ++occupiedCount;
    return true;
}

std::size_t
InputBuffer::countForJob(JobId job) const
{
    return job < lanes.size() ? lanes[job].count : 0;
}

std::optional<SlotId>
InputBuffer::oldestSlotForJob(JobId job) const
{
    if (job >= lanes.size() || lanes[job].head == kNoSlot)
        return std::nullopt;
    return lanes[job].head;
}

std::optional<SlotId>
InputBuffer::oldestSchedulable() const
{
    // Each lane is in arrival order, so the oldest schedulable record
    // is the lane head that arrived first.
    if (schedulableCount == 0)
        return std::nullopt;
    SlotId best = kNoSlot;
    for (const Lane &lane : lanes) {
        if (lane.head != kNoSlot &&
            (best == kNoSlot ||
             slots[lane.head].arrivalSeq < slots[best].arrivalSeq))
            best = lane.head;
    }
    return best;
}

std::optional<SlotId>
InputBuffer::newestSchedulable() const
{
    if (schedulableCount == 0)
        return std::nullopt;
    SlotId best = kNoSlot;
    for (const Lane &lane : lanes) {
        if (lane.tail != kNoSlot &&
            (best == kNoSlot ||
             slots[lane.tail].arrivalSeq > slots[best].arrivalSeq))
            best = lane.tail;
    }
    return best;
}

const InputRecord &
InputBuffer::record(SlotId slot) const
{
    if (slot >= slots.size() || !slots[slot].occupied)
        util::panic(util::msg("InputBuffer: unknown slot ", slot));
    return slots[slot].rec;
}

InputRecord
InputBuffer::markInFlight(SlotId slot)
{
    if (slot >= slots.size() || !slots[slot].occupied)
        util::panic(util::msg("InputBuffer: unknown slot ", slot));
    Slot &s = slots[slot];
    if (s.rec.inFlight)
        util::panic("input already in flight");
    laneRemove(s.rec.jobId, slot);
    s.rec.inFlight = true;
    return s.rec;
}

void
InputBuffer::releaseSlot(SlotId slot)
{
    if (slot >= slots.size() || !slots[slot].occupied)
        util::panic(util::msg("InputBuffer: unknown slot ", slot));
    Slot &s = slots[slot];
    if (!s.rec.inFlight)
        util::panic("releasing an input that is not in flight");

    if (s.prevFifo != kNoSlot)
        slots[s.prevFifo].nextFifo = s.nextFifo;
    else
        fifoHead = s.nextFifo;
    if (s.nextFifo != kNoSlot)
        slots[s.nextFifo].prevFifo = s.prevFifo;
    else
        fifoTail = s.prevFifo;

    s = Slot{};
    freeSlots.push_back(slot);
    --occupiedCount;
}

void
InputBuffer::retagSlot(SlotId slot, JobId nextJob, Tick enqueueTick)
{
    if (slot >= slots.size() || !slots[slot].occupied)
        util::panic(util::msg("InputBuffer: unknown slot ", slot));
    Slot &s = slots[slot];
    if (!s.rec.inFlight)
        util::panic("retagging an input that is not in flight");
    s.rec.inFlight = false;
    s.rec.jobId = nextJob;
    s.rec.enqueueTick = enqueueTick;
    laneInsertOrdered(nextJob, slot);
}

InputBuffer::State
InputBuffer::exportState() const
{
    State snapshot;
    snapshot.records.reserve(occupiedCount);
    forEachFifo([&snapshot](SlotId, const InputRecord &rec) {
        if (rec.inFlight)
            util::panic("InputBuffer::exportState with an in-flight "
                        "record (checkpoints are quiescent-only)");
        snapshot.records.push_back(rec);
    });
    snapshot.overflows = overflowCounts;
    snapshot.maxPushedId = maxPushedId;
    snapshot.anyPush = anyPush;
    snapshot.lastPushCaptureTick = lastPushCaptureTick;
    return snapshot;
}

void
InputBuffer::importState(const State &snapshot)
{
    if (snapshot.records.size() > cap)
        util::panic("InputBuffer::importState beyond capacity "
                    "(snapshot from a different configuration?)");
    clear();
    // Re-pushing in FIFO order reconstructs the intrusive index —
    // global FIFO, per-job lanes, free list — with identical
    // iteration and tie-break order.
    for (const InputRecord &rec : snapshot.records) {
        if (!tryPush(rec))
            util::panic("InputBuffer::importState push rejected");
    }
    overflowCounts = snapshot.overflows;
    maxPushedId = snapshot.maxPushedId;
    anyPush = snapshot.anyPush;
    lastPushCaptureTick = snapshot.lastPushCaptureTick;
}

void
InputBuffer::clear()
{
    slots.clear();
    freeSlots.clear();
    lanes.clear();
    fifoHead = kNoSlot;
    fifoTail = kNoSlot;
    occupiedCount = 0;
    schedulableCount = 0;
    nextArrivalSeq = 0;
    maxPushedId = 0;
    anyPush = false;
    lastPushCaptureTick = 0;
}

void
InputBuffer::State::walk(util::wire::Archive &ar)
{
    ar.section("buffer record count");
    records.resize(ar.count(records.size()));
    ar.section("buffer record");
    for (InputRecord &rec : records) {
        ar.varint(rec.id);
        ar.varint(rec.captureTick);
        ar.varint(rec.enqueueTick);
        ar.varint(rec.jobId);
        ar.flag(rec.interesting);
    }
    ar.section("buffer counters");
    ar.varint(overflows.total);
    ar.varint(overflows.interesting);
    ar.varint(maxPushedId);
    ar.flag(anyPush);
    ar.zigzag(lastPushCaptureTick);

    // Reject what importState's re-push would refuse: ids must rise
    // and capture ticks must not fall along the FIFO, and the newest
    // record must lie within the push history.
    ar.section("buffer record order");
    for (std::size_t i = 1; i < records.size(); ++i)
        ar.check(records[i].id > records[i - 1].id &&
                 records[i].captureTick >= records[i - 1].captureTick);
    ar.section("buffer record past push history");
    if (!records.empty())
        ar.check(anyPush && records.back().id <= maxPushedId &&
                 records.back().captureTick <= lastPushCaptureTick);
}

} // namespace queueing
} // namespace quetzal
