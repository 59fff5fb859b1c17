/**
 * @file
 * Wall-clock microbenchmark of the indexed InputBuffer: the
 * per-decision operations every controller performs, measured at a
 * configurable steady-state occupancy. Before the slot/lane index,
 * oldest-lookups and releases were O(occupancy); the figures here
 * are what keep them honest at the huge occupancies of the
 * infinite-buffer (Ideal) experiments.
 *
 * Three phases, each reported as ns per operation:
 *   - fill:   tryPush with strictly increasing capture ticks plus an
 *             oldestSlotForJob + countForJob probe per push (the
 *             scheduler's per-job queries),
 *   - select: oldestSchedulable / newestSchedulable at steady
 *             occupancy (the FCFS / LCFS choice),
 *   - churn:  markInFlight(oldest) -> retagSlot or releaseSlot ->
 *             refill, the simulator's per-job lifecycle on the slot
 *             handle it already holds.
 *
 * Emits one line of quetzal-bench-v1 JSON (see bench_json.hpp);
 * "ns_per_op" is the churn figure, the closest proxy for simulator
 * cost per completed job.
 *
 * Usage: micro_buffer [--occupancy N] [--ops N] [--job-classes N]
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_json.hpp"
#include "queueing/input_buffer.hpp"
#include "util/logging.hpp"

namespace {

using namespace quetzal;

double
nsPerOp(const std::chrono::steady_clock::time_point &start,
        const std::chrono::steady_clock::time_point &end, std::size_t ops)
{
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        end - start).count();
    return static_cast<double>(ns) / static_cast<double>(ops);
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t occupancy = 4096;
    std::size_t ops = 200000;
    queueing::JobId jobClasses = 4;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "usage: %s [--occupancy N] "
                             "[--ops N] [--job-classes N]\n", argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--occupancy")
            occupancy = std::strtoull(value(), nullptr, 10);
        else if (arg == "--ops")
            ops = std::strtoull(value(), nullptr, 10);
        else if (arg == "--job-classes")
            jobClasses = static_cast<queueing::JobId>(
                std::strtoul(value(), nullptr, 10));
        else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            return 2;
        }
    }
    if (occupancy == 0 || ops == 0 || jobClasses == 0) {
        std::fprintf(stderr, "arguments must be positive\n");
        return 2;
    }

    using clock = std::chrono::steady_clock;

    queueing::InputBuffer buffer(occupancy);
    std::uint64_t nextId = 1;
    Tick nextCapture = 1;
    // Accumulated so the compiler cannot discard the query results.
    std::uint64_t checksum = 0;

    auto push = [&](queueing::JobId job) {
        queueing::InputRecord rec;
        rec.id = nextId++;
        rec.captureTick = nextCapture;
        rec.enqueueTick = nextCapture;
        ++nextCapture;
        rec.jobId = job;
        if (!buffer.tryPush(rec))
            util::panic("micro_buffer: unexpected overflow");
    };

    // Phase 1: fill to the target occupancy, probing per push.
    const auto fillStart = clock::now();
    for (std::size_t i = 0; i < occupancy; ++i) {
        const auto job = static_cast<queueing::JobId>(i % jobClasses);
        push(job);
        if (const auto slot = buffer.oldestSlotForJob(job))
            checksum += buffer.record(*slot).id;
        checksum += buffer.countForJob(job);
    }
    const auto fillEnd = clock::now();

    // Phase 2: the FCFS / LCFS selection queries at steady occupancy.
    const auto selectStart = clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
        const auto oldest = buffer.oldestSchedulable();
        const auto newest = buffer.newestSchedulable();
        checksum += buffer.record(*oldest).id + buffer.record(*newest).id;
    }
    const auto selectEnd = clock::now();

    // Phase 3: the per-job lifecycle, shaped like the simulator's
    // classify / transmit mix: spawned (retagged) inputs land in a
    // dedicated successor lane and are consumed before fresh
    // captures, every 4th capture spawns, the rest release and a new
    // capture refills the slot. Occupancy stays constant throughout.
    const auto spawnLane = static_cast<queueing::JobId>(jobClasses);
    std::uint64_t captureRound = 0;
    std::uint64_t consumeRound = 0;
    const auto churnStart = clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
        if (const auto spawned = buffer.oldestSlotForJob(spawnLane)) {
            checksum += buffer.markInFlight(*spawned).id;
            buffer.releaseSlot(*spawned);
            push(static_cast<queueing::JobId>(
                captureRound++ % jobClasses));
            continue;
        }
        auto slot = buffer.oldestSlotForJob(
            static_cast<queueing::JobId>(consumeRound++ % jobClasses));
        if (!slot) {
            // Round-robin drift emptied this lane: take the global
            // FCFS choice instead (also a realistic consumer).
            slot = buffer.oldestSchedulable();
        }
        const queueing::InputRecord taken = buffer.markInFlight(*slot);
        checksum += taken.id;
        if (i % 4 == 0) {
            buffer.retagSlot(*slot, spawnLane, nextCapture);
        } else {
            buffer.releaseSlot(*slot);
            push(taken.jobId);
        }
    }
    const auto churnEnd = clock::now();

    const double fillNs = nsPerOp(fillStart, fillEnd, occupancy);
    const double selectNs = nsPerOp(selectStart, selectEnd, ops);
    const double churnNs = nsPerOp(churnStart, churnEnd, ops);

    bench::JsonLine line("micro_buffer");
    line.add("occupancy", occupancy)
        .add("ops", ops)
        .add("job_classes", static_cast<unsigned>(jobClasses))
        .add("fill_ns_per_op", fillNs)
        .add("select_ns_per_op", selectNs)
        .add("churn_ns_per_op", churnNs)
        .add("ns_per_op", churnNs)
        .add("checksum", static_cast<std::size_t>(checksum));
    line.print();
    return 0;
}
