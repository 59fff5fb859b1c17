/**
 * @file
 * Wall-clock benchmark of the sharded fleet engine (DESIGN.md
 * section 15): N devices split across the four policy cohorts of the
 * fleet_day stress shape (1 harvester cell, 90 s full-quality jobs
 * at 12 mW against 60 s captures, buffer 4), advanced over the
 * requested simulated horizon. Emits one line of quetzal-bench-v1
 * JSON:
 *
 *   {"bench": "micro_fleet", "devices": ..., "horizon_s": ...,
 *    "shards": ..., "jobs": ..., "ns_per_device_day": ...,
 *    "device_days_per_sec": ..., "bytes_per_device": ...,
 *    "peak_rss_bytes": ..., "jobs_completed": ..., "ibo_drops": ...}
 *
 * "ns_per_device_day" (the gate's primary metric) is wall time
 * divided by simulated device-days, so smoke (20k devices x 1 h) and
 * full (1M devices x 24 h) workloads measure the same unit cost.
 * "peak_rss_bytes" (VmHWM) is what bounds fleet memory: the
 * acceptance shape is a million devices through a simulated day
 * inside a few hundred MB, because per-device state is a 29-byte
 * struct-of-arrays row, not a heap Simulator.
 *
 * --verify re-runs the fleet with --jobs 1 and compares the rollup
 * text and every integer total against the parallel run —
 * byte-identical or panic (the determinism contract the fleet test
 * suite enforces per commit; here it guards the bench numbers too).
 *
 * --checkpoint measures the barrier-checkpoint tax: sixty back-to-back
 * pairs of one clean and one checkpointing run (an in-memory sink
 * swallows the blobs so disk speed stays out of the number), and the
 * line gains "checkpoint_overhead_pct" — the interquartile mean over
 * the pairs of the extra wall-clock cost of snapshotting every barrier,
 * which scripts/check_bench.sh gates below 5%. In this mode
 * ns_per_device_day comes from the clean minimum, so the primary
 * metric stays comparable to non-checkpoint baselines.
 *
 * Usage: micro_fleet [--devices N] [--horizon-s N] [--shards N]
 *                    [--slab-s N] [--jobs N] [--verify] [--checkpoint]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "fleet/fleet.hpp"
#include "sim/runner.hpp"
#include "util/logging.hpp"

namespace {

using namespace quetzal;

/** Clean/checkpointing run pairs behind --checkpoint (a multiple of
 *  four, so the middle half is whole). */
constexpr int kCheckpointPairs = 60;

/** Peak resident set (VmHWM) in bytes; 0 when unavailable. */
std::size_t
peakRssBytes()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
    return 0;
}

/** The fleet_day stress shape over four policy cohorts. */
fleet::FleetConfig
buildConfig(std::size_t devices, std::uint64_t horizonSeconds,
            unsigned shards, std::uint64_t slabSeconds)
{
    static const char *const kPolicies[] = {
        "sjf-ibo", "greedy-fcfs", "zygarde", "delgado-famaey"};

    fleet::FleetConfig config;
    config.shards = shards;
    config.slabTicks = static_cast<Tick>(slabSeconds) * kTicksPerSecond;
    config.horizonTicks =
        static_cast<Tick>(horizonSeconds) * kTicksPerSecond;
    config.rollupTicks = config.horizonTicks;
    for (std::size_t i = 0; i < 4; ++i) {
        fleet::CohortConfig cohort;
        cohort.name = kPolicies[i];
        cohort.policy = kPolicies[i];
        cohort.devices = devices / 4 + (i == 0 ? devices % 4 : 0);
        cohort.seed = 7;
        cohort.harvesterCells = 1;
        cohort.capturePeriod = 60 * kTicksPerSecond;
        cohort.bufferCapacity = 4;
        cohort.taskTicks = 90 * kTicksPerSecond;
        cohort.taskPower = 12e-3;
        config.cohorts.push_back(cohort);
    }
    return config;
}

/** Integer totals must agree exactly between two runs. */
void
assertIdentical(const fleet::FleetResult &a, const fleet::FleetResult &b)
{
    if (a.fleetTotals.jobsCompleted != b.fleetTotals.jobsCompleted ||
        a.fleetTotals.dropsInteresting !=
            b.fleetTotals.dropsInteresting ||
        a.fleetTotals.chargeNanojoules !=
            b.fleetTotals.chargeNanojoules ||
        a.fleetTotals.wastedNanojoules !=
            b.fleetTotals.wastedNanojoules)
        util::panic("fleet totals diverged between --jobs values");
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t devices = 1000000;
    std::uint64_t horizonSeconds = 86400;
    std::uint64_t slabSeconds = 600;
    unsigned shards = 64;
    unsigned jobs = sim::defaultJobs();
    bool verify = false;
    bool checkpoint = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "usage: %s [--devices N] [--horizon-s N] "
                             "[--shards N] [--slab-s N] [--jobs N] "
                             "[--verify] [--checkpoint]\n",
                             argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--devices")
            devices = std::strtoull(value(), nullptr, 10);
        else if (arg == "--horizon-s")
            horizonSeconds = std::strtoull(value(), nullptr, 10);
        else if (arg == "--shards")
            shards = static_cast<unsigned>(
                std::strtoul(value(), nullptr, 10));
        else if (arg == "--slab-s")
            slabSeconds = std::strtoull(value(), nullptr, 10);
        else if (arg == "--jobs")
            jobs = static_cast<unsigned>(
                std::strtoul(value(), nullptr, 10));
        else if (arg == "--verify")
            verify = true;
        else if (arg == "--checkpoint")
            checkpoint = true;
        else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            return 2;
        }
    }
    if (devices < 4 || horizonSeconds < slabSeconds || shards == 0 ||
        slabSeconds == 0 || jobs == 0) {
        std::fprintf(stderr, "arguments out of range\n");
        return 2;
    }
    horizonSeconds -= horizonSeconds % slabSeconds;

    const fleet::FleetConfig config =
        buildConfig(devices, horizonSeconds, shards, slabSeconds);

    using clock = std::chrono::steady_clock;

    fleet::FleetOptions options;
    options.jobs = jobs;
    std::ostringstream rollup;
    if (verify)
        options.out = &rollup;

    const auto start = clock::now();
    const fleet::FleetResult result = fleet::runFleet(config, options);
    const auto end = clock::now();

    double wallNs =
        static_cast<double>(std::chrono::duration_cast<
            std::chrono::nanoseconds>(end - start).count());

    // The checkpoint tax: run clean and checkpointing runs in
    // back-to-back pairs so both see the same thermal/cache and host
    // load conditions, and report the interquartile mean over the
    // pairs of the relative wall-clock overhead of snapshotting every
    // barrier. Host noise on a smoke-sized run is several percent,
    // the order of the tax itself, so a minimum per phase would
    // compare the luckiest run of one phase against the luckiest of
    // the other; pairing cancels load that drifts over seconds, and
    // the interquartile mean drops the quarter of pairs at either
    // end, which the bursts hit, and averages the middle half: it
    // centres where the median does, with less than half the spread
    // of a median of fifteen pairs. The pairs alternate which run
    // goes first, so a trend in host speed favours neither phase.
    // The sink keeps only the blob size; encoding cost is the
    // measurement, disk speed is not.
    double overheadPct = 0.0;
    std::size_t checkpointBytes = 0;
    std::uint64_t checkpointsWritten = 0;
    if (checkpoint) {
        auto timedRun = [&](bool withSink) -> double {
            fleet::FleetOptions repOptions;
            repOptions.jobs = jobs;
            std::size_t blobBytes = 0;
            if (withSink)
                repOptions.checkpointSink = [&](const std::string &state,
                                                Tick) {
                    blobBytes = state.size();
                };
            const auto repStart = clock::now();
            const fleet::FleetResult rep =
                fleet::runFleet(config, repOptions);
            const auto repEnd = clock::now();
            assertIdentical(rep, result);
            if (withSink) {
                checkpointBytes = blobBytes;
                checkpointsWritten = rep.checkpointsWritten;
            }
            return static_cast<double>(std::chrono::duration_cast<
                std::chrono::nanoseconds>(repEnd - repStart).count());
        };
        double cleanNs = std::numeric_limits<double>::infinity();
        std::vector<double> ratios;
        for (int pair = 0; pair < kCheckpointPairs; ++pair) {
            const bool cleanFirst = pair % 2 == 0;
            const double first = timedRun(!cleanFirst);
            const double second = timedRun(cleanFirst);
            const double clean = cleanFirst ? first : second;
            cleanNs = std::min(cleanNs, clean);
            ratios.push_back((cleanFirst ? second : first) / clean);
        }
        std::sort(ratios.begin(), ratios.end());
        double middle = 0.0;
        for (int i = kCheckpointPairs / 4; i < 3 * kCheckpointPairs / 4; ++i)
            middle += ratios[i];
        const double iqm = middle / (kCheckpointPairs / 2);
        overheadPct = std::max(0.0, (iqm - 1.0) * 100.0);
        wallNs = cleanNs;
    }

    if (verify) {
        fleet::FleetOptions serialOptions;
        serialOptions.jobs = 1;
        std::ostringstream serialRollup;
        serialOptions.out = &serialRollup;
        const fleet::FleetResult serial =
            fleet::runFleet(config, serialOptions);
        assertIdentical(result, serial);
        if (rollup.str() != serialRollup.str())
            util::panic(
                "fleet rollup text diverged between --jobs values");
    }

    const double deviceDays = static_cast<double>(devices) *
        (static_cast<double>(horizonSeconds) / 86400.0);

    bench::JsonLine line("micro_fleet");
    line.add("devices", devices)
        .add("horizon_s", static_cast<std::size_t>(horizonSeconds))
        .add("shards", shards)
        .add("jobs", jobs)
        .add("verified", verify ? "jobs-1-vs-N" : "off")
        .add("checkpointed", checkpoint ? "paired-iqm60" : "off")
        .add("ns_per_device_day", wallNs / deviceDays)
        .add("device_days_per_sec", deviceDays / (wallNs * 1e-9))
        .add("bytes_per_device",
             result.stateBytes / result.devices)
        .add("state_bytes", result.stateBytes)
        .add("peak_rss_bytes", peakRssBytes())
        .add("jobs_completed",
             static_cast<std::size_t>(result.fleetTotals.jobsCompleted))
        .add("ibo_drops", static_cast<std::size_t>(
            result.fleetTotals.dropsInteresting +
            result.fleetTotals.dropsUninteresting));
    if (checkpoint)
        line.add("checkpoint_overhead_pct", overheadPct, 2)
            .add("checkpoint_bytes", checkpointBytes)
            .add("checkpoints",
                 static_cast<std::size_t>(checkpointsWritten));
    line.print();
    return 0;
}
