/**
 * @file
 * The bounded input buffer — the queue at the center of the paper.
 *
 * Captured inputs that survive the cheap pre-filter are stored here
 * (a few images' worth of memory on a real device; the paper uses 10
 * entries). Jobs consume entries; a job may re-insert its input
 * tagged for a successor job (the spawn mechanism of section 3.1).
 * Inserts into a full buffer are input buffer overflows — the events
 * Quetzal exists to prevent — and are counted by ground-truth
 * interestingness so experiments can report exactly the paper's
 * metrics.
 *
 * Storage is indexed so every per-decision query is O(1) even at
 * the huge occupancies of the infinite-buffer (Ideal) experiments:
 *   - slots: lazily grown array; a record keeps its slot (a stable
 *     SlotId handle) from insert to release,
 *   - a global intrusive FIFO list in arrival order (the iteration
 *     and tie-break order of every policy, and the FCFS/LCFS order),
 *   - one intrusive lane per job holding its schedulable records in
 *     arrival order (oldestSlotForJob / countForJob),
 *   - a free-list recycling released slots.
 * Release and retag are O(1) through the stable SlotId a consumer
 * already holds.
 * Overall capacity can therefore be "practically infinite" without
 * eagerly allocating it: memory tracks the occupancy high-water
 * mark, not the configured capacity.
 */

#ifndef QUETZAL_QUEUEING_INPUT_BUFFER_HPP
#define QUETZAL_QUEUEING_INPUT_BUFFER_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "util/types.hpp"

namespace quetzal::util::wire {
class Archive;
}

namespace quetzal {
namespace queueing {

/** Identifies which job class must process an input next. */
using JobId = std::uint32_t;

/**
 * Stable handle to a buffered record: valid from the query that
 * produced it until the record's release (or clear()). Handles are
 * recycled after release, so do not hold one across mutations.
 */
using SlotId = std::uint32_t;

/** One buffered input (e.g. a compressed image). */
struct InputRecord
{
    std::uint64_t id = 0;      ///< unique per captured input
    Tick captureTick = 0;      ///< when the camera captured it
    Tick enqueueTick = 0;      ///< when it (re-)entered the buffer
    JobId jobId = 0;           ///< job class that processes it next
    bool interesting = false;  ///< ground truth (hidden from jobs)
    /**
     * True while a job is processing this input. An in-flight input
     * still occupies its memory slot (the image has not left the
     * device), so it counts toward occupancy and cannot be selected
     * again; job completion either releases the slot or retags the
     * record for a successor job (the spawn of section 3.1).
     */
    bool inFlight = false;
};

/** Overflow statistics, split by ground-truth interestingness. */
struct OverflowCounts
{
    std::uint64_t total = 0;
    std::uint64_t interesting = 0;
};

/**
 * Bounded FIFO of InputRecords with O(1) per-job queries.
 *
 * Invariant: size() <= capacity() always; the only way an input is
 * lost is an explicit rejected push, which is recorded.
 *
 * FIFO ("oldest") order is arrival order: tryPush appends, release
 * preserves the order of the remaining records, and retag keeps the
 * record's original position — exactly the semantics the scheduling
 * policies tie-break on. tryPush requires ids to rise and capture
 * ticks not to fall, so arrival order is also capture order.
 */
class InputBuffer
{
  public:
    /** @param capacity maximum buffered inputs (paper: 10 images) */
    explicit InputBuffer(std::size_t capacity);

    std::size_t capacity() const { return cap; }
    std::size_t size() const { return occupiedCount; }
    bool empty() const { return occupiedCount == 0; }
    bool full() const { return occupiedCount == cap; }

    /** Occupancy as a fraction of capacity, in [0, 1]. */
    double occupancyFraction() const;

    /**
     * Insert an input. On a full buffer the input is dropped, the
     * overflow counters advance, and false is returned. A stored
     * record's id must exceed every id stored before and its
     * captureTick must be no smaller than the last stored one's;
     * a violation panics (clear() resets this history).
     */
    bool tryPush(const InputRecord &record);

    /** Number of schedulable (not in-flight) inputs awaiting a job. O(1). */
    std::size_t countForJob(JobId job) const;

    /**
     * Slot of the oldest (arrival order) schedulable input for the
     * given job, or nullopt when none is queued. O(1).
     */
    std::optional<SlotId> oldestSlotForJob(JobId job) const;

    /**
     * Slot of the schedulable input that arrived first: the FCFS
     * choice. A retagged input keeps its arrival position. O(jobs).
     */
    std::optional<SlotId> oldestSchedulable() const;

    /** Slot of the schedulable input that arrived last (LCFS). O(jobs). */
    std::optional<SlotId> newestSchedulable() const;

    /** Record held by a slot. The slot must be occupied. O(1). */
    const InputRecord &record(SlotId slot) const;

    /**
     * Mark the input in the given slot in-flight and return a copy.
     * The slot stays occupied until releaseSlot() or retagSlot().
     * O(1).
     */
    InputRecord markInFlight(SlotId slot);

    /**
     * Release (remove) the in-flight input in the given slot. O(1).
     * The slot handle stays valid from markInFlight() to here — an
     * in-flight record can neither move nor be released by others.
     */
    void releaseSlot(SlotId slot);

    /**
     * Retag the in-flight input in the given slot for a successor
     * job (spawn): clears the in-flight mark and stamps the
     * re-enqueue time. Never overflows — the input already owns its
     * slot. Amortized O(1) for the runtime's oldest-first
     * consumption order (worst case O(lane length) for adversarial
     * orders).
     */
    void retagSlot(SlotId slot, JobId nextJob, Tick enqueueTick);

    /** Cumulative overflow counts since construction. */
    const OverflowCounts &overflows() const { return overflowCounts; }

    /** Remove everything (does not touch overflow counters). */
    void clear();

    /**
     * Logical checkpoint of the buffer: the resident records in FIFO
     * (arrival) order plus the push-history metadata that shapes
     * future behavior. Slot ids and arrival sequence numbers are
     * *not* state — policies order on relative arrival, which
     * re-pushing the records in order reconstructs exactly — so a
     * restored buffer is behavior-identical without
     * persisting the intrusive index.
     */
    struct State
    {
        std::vector<InputRecord> records; ///< FIFO order
        OverflowCounts overflows;
        std::uint64_t maxPushedId = 0;
        bool anyPush = false;
        Tick lastPushCaptureTick = 0;

        /**
         * The wire layout, under the resume diagnostics' section
         * names: the record count, each record (varint id, capture
         * tick, enqueue tick, job id; interesting flag), then the
         * overflow counters, the push history (last id, anyPush)
         * and the zigzag last capture tick. Load rejects records that
         * tryPush would refuse to re-push in order. The caller checks
         * the count against the restoring buffer's capacity, job ids
         * against its job table, and the history against its id and
         * capture clocks.
         */
        void walk(util::wire::Archive &ar);
    };

    /**
     * Snapshot the buffer (see State). Panics when any record is in
     * flight: checkpoints are taken at quiescent instants only.
     */
    State exportState() const;

    /** Restore a snapshot taken against the same capacity. */
    void importState(const State &snapshot);

    /**
     * Visit every resident record (in-flight included) oldest-first.
     * fn receives (SlotId, const InputRecord &). Mutating the buffer
     * during iteration is undefined.
     */
    template <typename Fn>
    void
    forEachFifo(Fn &&fn) const
    {
        for (SlotId s = fifoHead; s != kNoSlot; s = slots[s].nextFifo)
            fn(s, slots[s].rec);
    }

  private:
    static constexpr SlotId kNoSlot = 0xffffffffu;

    struct Slot
    {
        InputRecord rec;
        /** Arrival order (push order); retag keeps it. */
        std::uint64_t arrivalSeq = 0;
        SlotId prevFifo = kNoSlot;
        SlotId nextFifo = kNoSlot;
        SlotId prevLane = kNoSlot;
        SlotId nextLane = kNoSlot;
        bool occupied = false;
    };

    /** Per-job FIFO of schedulable records, in arrival order. */
    struct Lane
    {
        SlotId head = kNoSlot;
        SlotId tail = kNoSlot;
        std::size_t count = 0;
    };

    SlotId allocateSlot();
    Lane &laneFor(JobId job);
    void laneAppend(JobId job, SlotId slot);
    void laneInsertOrdered(JobId job, SlotId slot);
    void laneRemove(JobId job, SlotId slot);

    std::size_t cap;
    std::size_t occupiedCount = 0;
    std::size_t schedulableCount = 0;
    std::vector<Slot> slots;
    std::vector<SlotId> freeSlots;
    std::vector<Lane> lanes;
    SlotId fifoHead = kNoSlot;
    SlotId fifoTail = kNoSlot;
    std::uint64_t nextArrivalSeq = 0;
    /**
     * Push history that tryPush checks each stored record against:
     * the last stored id (the largest, ids only rise) and capture
     * tick. With ids unique by construction, no push scans residents.
     */
    std::uint64_t maxPushedId = 0;
    bool anyPush = false;
    Tick lastPushCaptureTick = 0;
    OverflowCounts overflowCounts;
};

} // namespace queueing
} // namespace quetzal

#endif // QUETZAL_QUEUEING_INPUT_BUFFER_HPP
