/**
 * @file
 * Crash/chaos harness for fleet checkpoint streams (DESIGN.md
 * section 17): a real fleet run is interrupted at every coordinator
 * barrier — cooperatively (the stopAfterTick halt), by a seeded
 * random draw of (policy, shards, jobs, kill epoch), and by SIGKILL
 * mid-append in a forked child — and resumed from the stream on
 * disk. Every resumed run must byte-match the straight run: rollup
 * text, run-sink event stream, fleet/shard/cohort integer totals,
 * and the checkpoint stream itself.
 *
 * The torn-tail discipline rides the append-only write protocol: a
 * crash can only truncate the final record, so the scanner drops it
 * and the prior barrier wins; anything else is corruption and dies
 * with a named diagnostic (the death tests at the bottom pin each
 * message).
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>
#include <vector>

#include "fleet/checkpoint.hpp"
#include "fleet/fleet.hpp"
#include "obs/trace_io.hpp"
#include "obs/trace_sink.hpp"
#include "sim/checkpoint.hpp"

namespace {

using namespace quetzal;

/** One cohort per policy in `policies`, 60 devices each. */
fleet::FleetConfig
chaosConfig(unsigned shards, std::vector<std::string> policies)
{
    fleet::FleetConfig config;
    config.shards = shards;
    config.slabTicks = 600 * kTicksPerSecond;
    config.horizonTicks = 3600 * kTicksPerSecond;
    config.rollupTicks = 1800 * kTicksPerSecond;
    for (const std::string &policy : policies) {
        fleet::CohortConfig cohort;
        cohort.name = policy;
        cohort.policy = policy;
        cohort.devices = 60;
        cohort.seed = 11;
        cohort.harvesterCells = 1;
        cohort.capturePeriod = 60 * kTicksPerSecond;
        cohort.bufferCapacity = 4;
        cohort.taskTicks = 90 * kTicksPerSecond;
        config.cohorts.push_back(cohort);
    }
    return config;
}

/** Everything a chaos comparison looks at. */
struct Observed
{
    std::string text;
    std::string traceText;
    fleet::FleetResult result;
};

std::string
countersLine(const fleet::CohortCounters &c)
{
    std::ostringstream out;
    out << c.captures << ' ' << c.missedCaptures << ' '
        << c.storedInputs << ' ' << c.dropsInteresting << ' '
        << c.dropsUninteresting << ' ' << c.jobsCompleted << ' '
        << c.degradedJobs << ' ' << c.powerFailures << ' '
        << c.checkpointSaves << ' ' << c.rechargeTicks << ' '
        << c.activeTicks << ' ' << c.chargeNanojoules << ' '
        << c.wastedNanojoules << ' ' << c.occupancySum << ' '
        << c.devicesOff;
    return out.str();
}

std::string
resultLines(const fleet::FleetResult &result)
{
    std::ostringstream out;
    out << countersLine(result.fleetTotals) << '\n';
    for (const fleet::CohortCounters &shard : result.shardTotals)
        out << countersLine(shard) << '\n';
    for (const fleet::CohortResult &cohort : result.cohorts)
        out << cohort.name << ' ' << countersLine(cohort.totals)
            << '\n';
    return out.str();
}

/**
 * Run once against a checkpoint stream file, mirroring exactly what
 * the scenario engine does with --fleet-checkpoint/--fleet-resume:
 * resume from the stream's last complete record (truncating a torn
 * tail first), append new barrier snapshots to the same stream.
 */
Observed
runAgainstStream(const fleet::FleetConfig &config, unsigned jobs,
                 const std::string &path, bool resume,
                 Tick stopAfterTick = 0)
{
    Observed observed;
    obs::VectorSink sink;
    std::ostringstream text;
    const std::uint64_t fingerprint = fleet::fleetFingerprint(config);

    fleet::FleetOptions options;
    options.jobs = jobs;
    options.sink = &sink;
    options.out = &text;
    options.stopAfterTick = stopAfterTick;

    fleet::FleetState resumeState;
    sim::CheckpointScan scan;
    if (resume) {
        scan = sim::readCheckpointStream(path, fingerprint);
        EXPECT_TRUE(fleet::validBarrierTick(config,
                                            scan.last.boundaryTick));
        std::string error;
        EXPECT_TRUE(fleet::decodeFleetState(scan.last.state, config,
                                            resumeState, error))
            << error;
        options.resumeTick = scan.last.boundaryTick;
        options.resumeState = &resumeState;
    }
    options.checkpointSink = sim::openCheckpointStream(
        path, fingerprint, resume ? path : std::string(), scan);

    observed.result = fleet::runFleet(config, options);
    observed.text = text.str();
    std::ostringstream trace;
    obs::writeJsonl(trace, sink.events(), 0);
    observed.traceText = trace.str();
    return observed;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "quetzal_chaos_" + name + ".qzck";
}

/**
 * The kill-at-barrier-N drill: checkpoint a straight run to one
 * stream, kill a second run at barrier `epoch`, resume it, and
 * demand byte identity everywhere — including between the two
 * streams on disk.
 */
void
killResumeAndCompare(const fleet::FleetConfig &config, unsigned jobs,
                     std::size_t epoch, const std::string &tag)
{
    const std::string straightPath = tempPath(tag + "_straight");
    const std::string chaosPath = tempPath(tag + "_chaos");

    const Observed straight =
        runAgainstStream(config, jobs, straightPath, false);
    const Observed killed = runAgainstStream(
        config, jobs, chaosPath, false,
        static_cast<Tick>(epoch) * config.slabTicks);
    EXPECT_EQ(killed.result.haltedAtTick,
              static_cast<Tick>(epoch) * config.slabTicks);

    const Observed resumed =
        runAgainstStream(config, jobs, chaosPath, true);
    EXPECT_EQ(resumed.result.resumedFromTick,
              static_cast<Tick>(epoch) * config.slabTicks);

    EXPECT_EQ(straight.text, killed.text + resumed.text)
        << tag << ": stdout did not stitch at barrier " << epoch;
    EXPECT_EQ(straight.traceText, resumed.traceText)
        << tag << ": trace diverged at barrier " << epoch;
    EXPECT_EQ(resultLines(straight.result), resultLines(resumed.result))
        << tag << ": totals diverged at barrier " << epoch;
    EXPECT_EQ(fileBytes(straightPath), fileBytes(chaosPath))
        << tag << ": resumed stream is not the straight stream at "
        << "barrier " << epoch;

    std::remove(straightPath.c_str());
    std::remove(chaosPath.c_str());
}

TEST(FleetChaos, KillAtEveryBarrierResumesByteIdentically)
{
    // Every (jobs, shards) cell of the acceptance matrix, killed at
    // every pre-horizon barrier epoch of the 6-slab hour.
    for (const unsigned jobs : {1u, 4u}) {
        for (const unsigned shards : {1u, 4u, 16u}) {
            const fleet::FleetConfig config =
                chaosConfig(shards, {"sjf-ibo", "greedy-fcfs"});
            for (std::size_t epoch = 1; epoch < 6; ++epoch) {
                killResumeAndCompare(
                    config, jobs, epoch,
                    "j" + std::to_string(jobs) + "s" +
                        std::to_string(shards) + "e" +
                        std::to_string(epoch));
            }
        }
    }
}

TEST(FleetChaos, RandomizedInterruptionPointsProperty)
{
    // Seeded draws over the whole space the harness spans; every
    // draw must stitch. The seed is fixed so a failure reproduces.
    static const char *const kPolicies[] = {
        "sjf-ibo", "greedy-fcfs", "zygarde", "delgado-famaey"};
    std::mt19937_64 rng(0x20260807ull);

    for (int draw = 0; draw < 6; ++draw) {
        const std::string policy =
            kPolicies[rng() % (sizeof kPolicies / sizeof *kPolicies)];
        const unsigned shards = 1 + static_cast<unsigned>(rng() % 8);
        const unsigned jobs = 1 + static_cast<unsigned>(rng() % 4);
        const std::size_t epoch = 1 + rng() % 5;

        const fleet::FleetConfig config =
            chaosConfig(shards, {policy, "sjf-ibo"});
        killResumeAndCompare(config, jobs, epoch,
                             "draw" + std::to_string(draw));
    }
}

TEST(FleetChaos, SigkilledWriterLeavesATornTailAndThePriorBarrierWins)
{
    const fleet::FleetConfig config =
        chaosConfig(4, {"sjf-ibo", "greedy-fcfs"});
    const std::uint64_t fingerprint = fleet::fleetFingerprint(config);
    const std::string path = tempPath("sigkill");
    std::remove(path.c_str());

    const pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
        // Child: append complete records for the first two barriers,
        // then die by SIGKILL halfway through the third append — the
        // torn write a preempted shard host actually produces.
        fleet::FleetOptions options;
        options.jobs = 2;
        std::size_t epoch = 0;
        const sim::CheckpointAppend append =
            sim::openCheckpointStream(path, fingerprint);
        options.checkpointSink = [&](const std::string &state,
                                     Tick tick) {
            ++epoch;
            if (epoch <= 2) {
                append(state, tick);
                return;
            }
            const std::string framed =
                sim::frameCheckpoint(state, fingerprint, tick);
            std::ofstream torn(path,
                               std::ios::binary | std::ios::app);
            torn.write(framed.data(),
                       static_cast<std::streamsize>(framed.size() / 2));
            torn.close();
            ::raise(SIGKILL);
        };
        (void)fleet::runFleet(config, options);
        ::_exit(0); // not reached: the third barrier kills us
    }

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child exited instead of dying by signal";
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    // The scan detects the torn third record and resolves to the
    // second barrier's complete one.
    const sim::CheckpointScan scan =
        sim::readCheckpointStream(path, fingerprint);
    EXPECT_EQ(scan.records, 2u);
    EXPECT_TRUE(scan.tornTail);
    EXPECT_EQ(scan.last.boundaryTick, 2 * config.slabTicks);

    // And the resume path (torn-tail truncation included) still
    // reconstructs the straight run and the straight stream.
    const std::string straightPath = tempPath("sigkill_straight");
    const Observed straight =
        runAgainstStream(config, 2, straightPath, false);
    const Observed resumed = runAgainstStream(config, 2, path, true);
    EXPECT_EQ(straight.traceText, resumed.traceText);
    EXPECT_EQ(resultLines(straight.result), resultLines(resumed.result));
    EXPECT_EQ(fileBytes(straightPath), fileBytes(path));

    std::remove(straightPath.c_str());
    std::remove(path.c_str());
}

TEST(FleetChaos, TruncationSweepAlwaysResolvesToThePriorBarrier)
{
    // A three-record stream cut at *every* byte position: each cut
    // must either resolve to the last complete record before the cut
    // (torn tail or clean boundary) or — with no complete record —
    // fail with a named diagnostic. No cut may crash or mis-resolve.
    const std::string states[] = {"alpha", "bravo!", "charlie blob"};
    std::string stream;
    std::vector<std::size_t> boundaries; // offsets after each record
    for (std::size_t i = 0; i < 3; ++i) {
        stream += sim::frameCheckpoint(states[i], 0x5eedull,
                                       static_cast<Tick>(600 * (i + 1)));
        boundaries.push_back(stream.size());
    }

    for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
        sim::CheckpointScan scan;
        std::string error;
        const bool ok = sim::scanCheckpointStream(stream.substr(0, cut),
                                                  scan, error);
        std::size_t complete = 0;
        while (complete < boundaries.size() &&
               boundaries[complete] <= cut)
            ++complete;

        if (complete == 0) {
            EXPECT_FALSE(ok) << "cut " << cut;
            EXPECT_FALSE(error.empty()) << "cut " << cut;
            continue;
        }
        ASSERT_TRUE(ok) << "cut " << cut << ": " << error;
        EXPECT_EQ(scan.records, complete) << "cut " << cut;
        EXPECT_EQ(scan.last.state, states[complete - 1])
            << "cut " << cut;
        EXPECT_EQ(scan.validBytes, boundaries[complete - 1])
            << "cut " << cut;
        EXPECT_EQ(scan.tornTail, cut != boundaries[complete - 1])
            << "cut " << cut;
    }
}

// --- Pinned corruption diagnostics -------------------------------------

TEST(FleetChaos, ScanRejectsACrcFlipOnACompleteRecord)
{
    // A flipped bit inside a *complete* record is corruption, never a
    // torn tail — complete records cannot tear under the append-only
    // discipline, so the prior-barrier rule must not mask it.
    std::string stream =
        sim::frameCheckpoint("first", 1, 600) +
        sim::frameCheckpoint("second", 1, 1200);
    stream[33] = static_cast<char>(stream[33] ^ 0x08); // first state

    sim::CheckpointScan scan;
    std::string error;
    EXPECT_FALSE(sim::scanCheckpointStream(stream, scan, error));
    EXPECT_NE(error.find("CRC mismatch"), std::string::npos) << error;
}

TEST(FleetChaos, ScanRejectsAStreamWithNoCompleteRecord)
{
    sim::CheckpointScan scan;
    std::string error;

    EXPECT_FALSE(sim::scanCheckpointStream(std::string(), scan, error));
    EXPECT_NE(error.find("no complete record"), std::string::npos)
        << error;

    const std::string lone = sim::frameCheckpoint("only", 1, 600);
    EXPECT_FALSE(sim::scanCheckpointStream(lone.substr(0, 20), scan,
                                           error));
    EXPECT_NE(error.find("truncated checkpoint header"),
              std::string::npos)
        << error;
    EXPECT_FALSE(sim::scanCheckpointStream(
        lone.substr(0, lone.size() - 2), scan, error));
    EXPECT_NE(error.find("truncated checkpoint state"),
              std::string::npos)
        << error;
}

TEST(FleetChaos, ScanRejectsGarbageBetweenRecords)
{
    const std::string stream = sim::frameCheckpoint("first", 1, 600) +
        "garbage" + sim::frameCheckpoint("second", 1, 1200);
    sim::CheckpointScan scan;
    std::string error;
    EXPECT_FALSE(sim::scanCheckpointStream(stream, scan, error));
    EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

TEST(FleetChaos, ScanRejectsAFutureSchemaVersion)
{
    std::string stream = sim::frameCheckpoint("first", 1, 600);
    stream[4] = static_cast<char>(sim::kCheckpointMajor + 1);
    sim::CheckpointScan scan;
    std::string error;
    EXPECT_FALSE(sim::scanCheckpointStream(stream, scan, error));
    EXPECT_NE(error.find("unsupported checkpoint schema version"),
              std::string::npos)
        << error;
}

using FleetChaosDeathTest = ::testing::Test;

TEST(FleetChaosDeathTest, ResumeDiesOnAWrongFingerprintStream)
{
    const std::string path = tempPath("wrong_fp");
    sim::openCheckpointStream(path, 0x1111)("state bytes", 600);
    EXPECT_EXIT((void)sim::readCheckpointStream(path, 0x2222),
                ::testing::ExitedWithCode(1),
                "belongs to a different experiment");
    std::remove(path.c_str());
}

TEST(FleetChaosDeathTest, ResumeDiesOnATruncatedLoneRecordFile)
{
    const std::string path = tempPath("lone_torn");
    const std::string framed = sim::frameCheckpoint("state", 7, 600);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(framed.data(),
              static_cast<std::streamsize>(framed.size() - 4));
    out.close();
    EXPECT_EXIT((void)sim::readCheckpointStream(path, 7),
                ::testing::ExitedWithCode(1),
                "truncated checkpoint state");
    std::remove(path.c_str());
}

TEST(FleetChaosDeathTest, ResumeDiesOnANonBarrierCheckpointTick)
{
    // A stream whose record was taken at a tick that is not a
    // coordinator barrier of the resuming configuration: the engine
    // refuses to resume mid-slab.
    const fleet::FleetConfig config =
        chaosConfig(2, {"sjf-ibo", "greedy-fcfs"});
    fleet::FleetState state; // irrelevant: the tick check fires first

    fleet::FleetOptions options;
    options.jobs = 1;
    options.resumeTick = config.slabTicks + 1;
    options.resumeState = &state;
    EXPECT_DEATH((void)fleet::runFleet(config, options),
                 "barrier epoch mismatch");
}

} // namespace
