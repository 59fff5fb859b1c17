/**
 * @file
 * Differential test: the indexed InputBuffer (slot/lane/free-list
 * structures) against a naive reference model implementing the same
 * contract with plain O(n) scans over a vector in arrival order.
 * Randomized operation sequences — push / markInFlight / release /
 * retag / drop-on-full / clear — must keep every observable (sizes,
 * per-job counts, FIFO order, oldest-per-job, FCFS/LCFS choice,
 * overflow counters) identical between the two. This pins the
 * O(1)-index rewrite to the exact semantics the scheduling policies
 * and the simulator tie-break on: FCFS/LCFS follow arrival order,
 * also when consecutive captures share a tick.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <vector>

#include "queueing/input_buffer.hpp"

namespace quetzal {
namespace queueing {
namespace {

/**
 * The pre-index semantics, stated as directly as possible: records
 * live in a vector in arrival order; every query scans.
 */
class NaiveBuffer
{
  public:
    explicit NaiveBuffer(std::size_t capacity) : cap(capacity) {}

    std::size_t size() const { return records.size(); }
    bool full() const { return records.size() == cap; }

    bool
    tryPush(const InputRecord &record)
    {
        if (full()) {
            ++overflowCounts.total;
            if (record.interesting)
                ++overflowCounts.interesting;
            return false;
        }
        records.push_back(record);
        return true;
    }

    std::size_t
    countForJob(JobId job) const
    {
        std::size_t n = 0;
        for (const auto &r : records)
            if (!r.inFlight && r.jobId == job)
                ++n;
        return n;
    }

    std::optional<std::uint64_t>
    oldestIdForJob(JobId job) const
    {
        for (const auto &r : records)
            if (!r.inFlight && r.jobId == job)
                return r.id;
        return std::nullopt;
    }

    /** FCFS: the first schedulable record in arrival order. */
    std::optional<std::uint64_t>
    oldestSchedulableId() const
    {
        for (const auto &r : records)
            if (!r.inFlight)
                return r.id;
        return std::nullopt;
    }

    /** LCFS: the last schedulable record in arrival order. */
    std::optional<std::uint64_t>
    newestSchedulableId() const
    {
        for (auto it = records.rbegin(); it != records.rend(); ++it)
            if (!it->inFlight)
                return it->id;
        return std::nullopt;
    }

    void
    markInFlight(std::uint64_t id)
    {
        find(id).inFlight = true;
    }

    void
    release(std::uint64_t id)
    {
        const auto it = std::find_if(records.begin(), records.end(),
                                     [&](const InputRecord &r) {
                                         return r.id == id;
                                     });
        ASSERT_NE(it, records.end());
        records.erase(it);
    }

    void
    retag(std::uint64_t id, JobId nextJob, Tick enqueueTick)
    {
        InputRecord &r = find(id);
        r.inFlight = false;
        r.jobId = nextJob;
        r.enqueueTick = enqueueTick;
    }

    void clear() { records.clear(); }

    const OverflowCounts &overflows() const { return overflowCounts; }

    /** Resident record ids in FIFO (arrival) order. */
    std::vector<std::uint64_t>
    fifoIds() const
    {
        std::vector<std::uint64_t> ids;
        for (const auto &r : records)
            ids.push_back(r.id);
        return ids;
    }

    /** Ids of schedulable records of one job, in arrival order. */
    std::vector<std::uint64_t>
    schedulableIdsForJob(JobId job) const
    {
        std::vector<std::uint64_t> ids;
        for (const auto &r : records)
            if (!r.inFlight && r.jobId == job)
                ids.push_back(r.id);
        return ids;
    }

    /** A random in-flight id, if any (for release/retag choices). */
    std::optional<std::uint64_t>
    anyInFlight(std::mt19937_64 &rng) const
    {
        std::vector<std::uint64_t> ids;
        for (const auto &r : records)
            if (r.inFlight)
                ids.push_back(r.id);
        if (ids.empty())
            return std::nullopt;
        return ids[rng() % ids.size()];
    }

  private:
    InputRecord &
    find(std::uint64_t id)
    {
        for (auto &r : records)
            if (r.id == id)
                return r;
        ADD_FAILURE() << "unknown id " << id;
        static InputRecord dummy;
        return dummy;
    }

    std::size_t cap;
    std::vector<InputRecord> records;
    OverflowCounts overflowCounts;
};

constexpr JobId kJobs = 3;

void
expectEquivalent(const InputBuffer &indexed, const NaiveBuffer &naive)
{
    ASSERT_EQ(indexed.size(), naive.size());
    ASSERT_EQ(indexed.full(), naive.full());
    ASSERT_EQ(indexed.overflows().total, naive.overflows().total);
    ASSERT_EQ(indexed.overflows().interesting,
              naive.overflows().interesting);

    std::vector<std::uint64_t> fifo;
    indexed.forEachFifo([&](SlotId, const InputRecord &rec) {
        fifo.push_back(rec.id);
    });
    ASSERT_EQ(fifo, naive.fifoIds());

    for (JobId job = 0; job <= kJobs; ++job) {
        ASSERT_EQ(indexed.countForJob(job), naive.countForJob(job))
            << "job " << job;
        const auto slot = indexed.oldestSlotForJob(job);
        const auto naiveId = naive.oldestIdForJob(job);
        ASSERT_EQ(slot.has_value(), naiveId.has_value()) << "job " << job;
        if (slot) {
            ASSERT_EQ(indexed.record(*slot).id, *naiveId);
        }
    }

    const auto fcfs = indexed.oldestSchedulable();
    const auto naiveFcfs = naive.oldestSchedulableId();
    ASSERT_EQ(fcfs.has_value(), naiveFcfs.has_value());
    if (fcfs) {
        ASSERT_EQ(indexed.record(*fcfs).id, *naiveFcfs);
    }

    const auto lcfs = indexed.newestSchedulable();
    const auto naiveLcfs = naive.newestSchedulableId();
    ASSERT_EQ(lcfs.has_value(), naiveLcfs.has_value());
    if (lcfs) {
        ASSERT_EQ(indexed.record(*lcfs).id, *naiveLcfs);
    }
}

/** The slot holding input `id`, found by a FIFO walk. */
SlotId
slotOf(const InputBuffer &buffer, std::uint64_t id)
{
    std::optional<SlotId> slot;
    buffer.forEachFifo([&](SlotId s, const InputRecord &rec) {
        if (rec.id == id)
            slot = s;
    });
    EXPECT_TRUE(slot.has_value()) << "no resident input " << id;
    return slot.value_or(0);
}

/**
 * One randomized episode. Without strictCaptures, consecutive pushes
 * often share a capture tick.
 */
void
runEpisode(std::uint64_t seed, bool strictCaptures)
{
    std::mt19937_64 rng(seed);
    const std::size_t capacity = 2 + rng() % 12;
    InputBuffer indexed(capacity);
    NaiveBuffer naive(capacity);

    std::uint64_t nextId = 1;
    Tick tick = 0;

    const int steps = 400;
    for (int step = 0; step < steps; ++step) {
        const unsigned op = rng() % 100;
        if (op < 45) {
            // Push (drops on full in both models).
            InputRecord rec;
            rec.id = nextId++;
            tick += strictCaptures ? 1 + rng() % 3 : rng() % 2;
            rec.captureTick = tick;
            rec.enqueueTick = tick;
            rec.jobId = static_cast<JobId>(rng() % kJobs);
            rec.interesting = rng() % 2 == 0;
            ASSERT_EQ(indexed.tryPush(rec), naive.tryPush(rec));
        } else if (op < 70) {
            // Mark the oldest input of a random job in flight.
            const auto job = static_cast<JobId>(rng() % kJobs);
            const auto slot = indexed.oldestSlotForJob(job);
            const auto naiveId = naive.oldestIdForJob(job);
            ASSERT_EQ(slot.has_value(), naiveId.has_value());
            if (slot) {
                const InputRecord taken = indexed.markInFlight(*slot);
                ASSERT_EQ(taken.id, *naiveId);
                naive.markInFlight(*naiveId);
            }
        } else if (op < 85) {
            // Release a random in-flight input.
            if (const auto id = naive.anyInFlight(rng)) {
                indexed.releaseSlot(slotOf(indexed, *id));
                naive.release(*id);
            }
        } else if (op < 97) {
            // Retag (spawn) a random in-flight input.
            if (const auto id = naive.anyInFlight(rng)) {
                const auto job = static_cast<JobId>(rng() % kJobs);
                indexed.retagSlot(slotOf(indexed, *id), job, tick);
                naive.retag(*id, job, tick);
            }
        } else {
            indexed.clear();
            naive.clear();
        }
        expectEquivalent(indexed, naive);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

class InputBufferDifferential
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(InputBufferDifferential, StrictCaptureOrder)
{
    runEpisode(GetParam() * 2654435761ull + 17, true);
}

TEST_P(InputBufferDifferential, DuplicateCaptureTicks)
{
    runEpisode(GetParam() * 40503ull + 5, false);
}

INSTANTIATE_TEST_SUITE_P(Random, InputBufferDifferential,
                         ::testing::Range<std::uint64_t>(0, 12));

/**
 * The spawn consumption order of the real runtime: the retagged
 * record keeps its arrival position, so a lane receiving retags in
 * ascending id order stays ordered and oldest-first consumption
 * drains it in id order.
 */
TEST(InputBufferDifferentialDirected, RetagKeepsArrivalOrder)
{
    InputBuffer indexed(8);
    NaiveBuffer naive(8);
    for (std::uint64_t id = 1; id <= 6; ++id) {
        InputRecord rec;
        rec.id = id;
        rec.captureTick = static_cast<Tick>(id * 10);
        rec.enqueueTick = rec.captureTick;
        rec.jobId = 0;
        ASSERT_TRUE(indexed.tryPush(rec));
        ASSERT_TRUE(naive.tryPush(rec));
    }
    // Consume 3, 1, 2 out of order (the scheduler can interleave),
    // spawning each to job 1; lane 1 must still drain 1, 2, 3.
    for (const std::uint64_t id : {3u, 1u, 2u}) {
        // Ids were pushed in order, so find each record's slot via
        // the job-0 lane walk of the naive model.
        const auto ids = naive.schedulableIdsForJob(0);
        ASSERT_NE(std::find(ids.begin(), ids.end(), id), ids.end());
        // Mark this specific record: advance the indexed lane by
        // marking-then-retagging is not possible, so locate its slot
        // through the FIFO walk.
        std::optional<SlotId> slot;
        indexed.forEachFifo([&](SlotId s, const InputRecord &rec) {
            if (rec.id == id)
                slot = s;
        });
        ASSERT_TRUE(slot.has_value());
        indexed.markInFlight(*slot);
        naive.markInFlight(id);
        indexed.retagSlot(*slot, 1, 1000 + id);
        naive.retag(id, 1, 1000 + id);
        expectEquivalent(indexed, naive);
    }
    const auto lane = naive.schedulableIdsForJob(1);
    ASSERT_EQ(lane, (std::vector<std::uint64_t>{1, 2, 3}));
    ASSERT_EQ(indexed.record(*indexed.oldestSlotForJob(1)).id, 1u);
}

} // namespace
} // namespace queueing
} // namespace quetzal
