/**
 * @file
 * Fleet barrier-snapshot contract (DESIGN.md section 17): saving is
 * byte-inert, a snapshot taken at any coordinator barrier resumes
 * into exactly the straight run — same rollup text, same event
 * stream, same integer totals — for any --jobs value and any shard
 * count (including a shard count different from the one the snapshot
 * was taken under), and a corrupted blob is rejected with a named
 * diagnostic instead of silent divergence.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fleet/checkpoint.hpp"
#include "fleet/fleet.hpp"
#include "obs/trace_io.hpp"
#include "obs/trace_sink.hpp"
#include "util/wire.hpp"

namespace {

using namespace quetzal;

/** One collected barrier snapshot: the blob and its barrier tick. */
using Snapshot = std::pair<std::string, Tick>;

/** Two policy cohorts x 120 devices; 6 barriers over a short hour. */
fleet::FleetConfig
smallConfig(unsigned shards)
{
    static const char *const kPolicies[] = {"sjf-ibo", "greedy-fcfs"};

    fleet::FleetConfig config;
    config.shards = shards;
    config.slabTicks = 600 * kTicksPerSecond;
    config.horizonTicks = 3600 * kTicksPerSecond;
    config.rollupTicks = 1800 * kTicksPerSecond;
    for (const char *policy : kPolicies) {
        fleet::CohortConfig cohort;
        cohort.name = policy;
        cohort.policy = policy;
        cohort.devices = 120;
        cohort.seed = 7;
        cohort.harvesterCells = 1;
        cohort.capturePeriod = 60 * kTicksPerSecond;
        cohort.bufferCapacity = 4;
        cohort.taskTicks = 90 * kTicksPerSecond;
        config.cohorts.push_back(cohort);
    }
    return config;
}

/** Everything observable about one fleet run. */
struct FleetCapture
{
    std::string text;                  ///< rollup lines + summaries
    std::vector<obs::Event> events;    ///< run-sink stream
    std::vector<obs::Event> episodes;  ///< checkpoint/restore events
    std::vector<Snapshot> checkpoints;
    fleet::FleetResult result;
};

/** Run once, collecting snapshots in memory; a resume decodes
 *  `resumeBlob` against `config` first. */
FleetCapture
runOnce(const fleet::FleetConfig &config, unsigned jobs,
        bool checkpointing = false, Tick stopAfterTick = 0,
        Tick resumeTick = 0, const std::string *resumeBlob = nullptr)
{
    FleetCapture capture;
    obs::VectorSink sink;
    obs::VectorSink episodes;
    std::ostringstream text;

    fleet::FleetOptions options;
    options.jobs = jobs;
    options.sink = &sink;
    options.out = &text;
    options.stopAfterTick = stopAfterTick;
    fleet::FleetState resumeState;
    if (resumeBlob != nullptr) {
        std::string error;
        EXPECT_TRUE(fleet::decodeFleetState(*resumeBlob, config,
                                            resumeState, error))
            << error;
        options.resumeTick = resumeTick;
        options.resumeState = &resumeState;
    }
    if (checkpointing || resumeBlob != nullptr)
        options.episodeSink = &episodes;
    if (checkpointing) {
        options.checkpointSink = [&capture](const std::string &state,
                                            Tick tick) {
            capture.checkpoints.emplace_back(state, tick);
        };
    }

    capture.result = fleet::runFleet(config, options);
    capture.text = text.str();
    capture.events = sink.events();
    capture.episodes = episodes.events();
    return capture;
}

/** encodeFleetState into fresh buffers. */
std::string
encode(fleet::FleetState &state, std::uint64_t fp)
{
    std::string blob;
    std::string section;
    fleet::encodeFleetState(state, fp, blob, section);
    return blob;
}

std::string
eventBytes(const std::vector<obs::Event> &events)
{
    std::ostringstream out;
    obs::writeJsonl(out, events, 0);
    return out.str();
}

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

/** Fleet totals + per-shard totals + per-cohort totals, one string. */
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

/** Expect a halted prefix + resumed suffix == the straight run. */
void
expectStitchesToStraight(const FleetCapture &straight,
                         const FleetCapture &halted,
                         const FleetCapture &resumed)
{
    EXPECT_EQ(straight.text, halted.text + resumed.text);
    // The resumed run replays the halted segment's events into its
    // sink before continuing, so its stream alone is the whole run's.
    EXPECT_EQ(eventBytes(straight.events), eventBytes(resumed.events));
    EXPECT_EQ(countersLine(straight.result.fleetTotals),
              countersLine(resumed.result.fleetTotals));
}

TEST(FleetCheckpoint, FingerprintSeparatesKnobsButNotShards)
{
    const fleet::FleetConfig base = smallConfig(4);
    const std::uint64_t fp = fleet::fleetFingerprint(base);

    // The shard count must NOT matter: partitioning is unobservable
    // by the determinism contract, so a snapshot resumes under any.
    fleet::FleetConfig otherShards = smallConfig(16);
    EXPECT_EQ(fp, fleet::fleetFingerprint(otherShards));

    fleet::FleetConfig otherSlab = base;
    otherSlab.slabTicks = 300 * kTicksPerSecond;
    EXPECT_NE(fp, fleet::fleetFingerprint(otherSlab));

    fleet::FleetConfig otherHorizon = base;
    otherHorizon.horizonTicks = 7200 * kTicksPerSecond;
    EXPECT_NE(fp, fleet::fleetFingerprint(otherHorizon));

    fleet::FleetConfig otherSeed = base;
    otherSeed.cohorts[0].seed = 8;
    EXPECT_NE(fp, fleet::fleetFingerprint(otherSeed));

    fleet::FleetConfig otherPolicy = base;
    otherPolicy.cohorts[1].policy = "zygarde";
    EXPECT_NE(fp, fleet::fleetFingerprint(otherPolicy));

    fleet::FleetConfig otherDevices = base;
    otherDevices.cohorts[0].devices = 121;
    EXPECT_NE(fp, fleet::fleetFingerprint(otherDevices));

    fleet::FleetConfig otherBuffer = base;
    otherBuffer.cohorts[0].bufferCapacity = 5;
    EXPECT_NE(fp, fleet::fleetFingerprint(otherBuffer));
}

TEST(FleetCheckpoint, ValidBarrierTicksAreSlabEndsUpToTheHorizon)
{
    const fleet::FleetConfig config = smallConfig(1);
    const Tick slab = config.slabTicks;

    EXPECT_FALSE(fleet::validBarrierTick(config, 0));
    EXPECT_FALSE(fleet::validBarrierTick(config, slab / 2));
    EXPECT_TRUE(fleet::validBarrierTick(config, slab));
    EXPECT_TRUE(fleet::validBarrierTick(config, 3 * slab));
    EXPECT_TRUE(fleet::validBarrierTick(config, config.horizonTicks));
    EXPECT_FALSE(
        fleet::validBarrierTick(config, config.horizonTicks + slab));

    // A horizon that is not a slab multiple ends in a partial slab
    // whose barrier is the horizon itself.
    fleet::FleetConfig partial = config;
    partial.horizonTicks = 3 * slab + slab / 2;
    partial.rollupTicks = slab;
    EXPECT_TRUE(
        fleet::validBarrierTick(partial, partial.horizonTicks));
    EXPECT_FALSE(fleet::validBarrierTick(partial, 4 * slab));
}

TEST(FleetCheckpoint, CheckpointingIsByteInert)
{
    const fleet::FleetConfig config = smallConfig(4);
    const FleetCapture clean = runOnce(config, 2);
    const FleetCapture saving = runOnce(config, 2,
                                        /*checkpointing=*/true);

    ASSERT_EQ(saving.checkpoints.size(), 6u);
    EXPECT_EQ(saving.result.checkpointsWritten, 6u);
    EXPECT_EQ(clean.text, saving.text);
    EXPECT_EQ(eventBytes(clean.events), eventBytes(saving.events));
    EXPECT_EQ(resultLines(clean.result), resultLines(saving.result));

    // The episode stream carries exactly one save per barrier — and
    // stays out of the run sink, which is what the equalities above
    // prove.
    ASSERT_EQ(saving.episodes.size(), 6u);
    for (std::size_t i = 0; i < saving.episodes.size(); ++i) {
        const obs::Event &event = saving.episodes[i];
        EXPECT_EQ(event.kind, obs::EventKind::FleetCheckpoint);
        EXPECT_EQ(event.id, static_cast<std::uint64_t>(i + 1));
        EXPECT_EQ(event.tick, saving.checkpoints[i].second);
    }
}

TEST(FleetCheckpoint, SnapshotBlobsAreByteIdenticalAcrossJobs)
{
    const fleet::FleetConfig config = smallConfig(4);
    const FleetCapture serial = runOnce(config, 1, true);
    const FleetCapture parallel = runOnce(config, 4, true);

    ASSERT_EQ(serial.checkpoints.size(), parallel.checkpoints.size());
    for (std::size_t i = 0; i < serial.checkpoints.size(); ++i) {
        EXPECT_EQ(serial.checkpoints[i].second,
                  parallel.checkpoints[i].second);
        EXPECT_EQ(serial.checkpoints[i].first,
                  parallel.checkpoints[i].first)
            << "snapshot blob diverged at barrier "
            << serial.checkpoints[i].second;
    }
}

TEST(FleetCheckpoint, EncodeDecodeRoundTripsByteExactly)
{
    const fleet::FleetConfig config = smallConfig(4);
    const FleetCapture saving = runOnce(config, 2, true);
    ASSERT_GE(saving.checkpoints.size(), 3u);
    const std::string &blob = saving.checkpoints[2].first;

    const std::uint64_t fp = fleet::fleetFingerprint(config);
    fleet::FleetState state;
    std::string error;
    ASSERT_TRUE(fleet::decodeFleetState(blob, config, state, error))
        << error;
    EXPECT_EQ(state.shards, 4u);
    EXPECT_EQ(state.coordinator.size(), config.cohorts.size());
    EXPECT_EQ(state.devices.size(), 4u);
    EXPECT_EQ(encode(state, fp), blob);

    // One encode buffer serves every barrier: re-encoding into
    // buffers that hold a longer blob yields exactly the same bytes.
    std::string reused = saving.checkpoints.back().first + "stale";
    std::string section = "stale section";
    fleet::encodeFleetState(state, fp, reused, section);
    EXPECT_EQ(reused, blob);
}

TEST(FleetCheckpoint, ResumeAtEveryBarrierReplaysTheStraightRun)
{
    const fleet::FleetConfig config = smallConfig(4);
    const FleetCapture straight = runOnce(config, 2);
    const FleetCapture saving = runOnce(config, 2, true);
    ASSERT_EQ(saving.checkpoints.size(), 6u);

    // The final barrier is the horizon: resuming there replays the
    // whole run from its snapshot and emits only the summaries.
    for (const Snapshot &snap : saving.checkpoints) {
        const FleetCapture resumed = runOnce(
            config, 2, false, 0, snap.second, &snap.first);
        EXPECT_EQ(eventBytes(straight.events),
                  eventBytes(resumed.events))
            << "event stream diverged resuming from barrier "
            << snap.second;
        EXPECT_EQ(resultLines(straight.result),
                  resultLines(resumed.result))
            << "totals diverged resuming from barrier " << snap.second;
        EXPECT_EQ(resumed.result.resumedFromTick, snap.second);

        // The reader that decoded the state records the restore
        // episode (scripts/check_fleet_resume.sh); a resumed run
        // that does not checkpoint records none.
        EXPECT_TRUE(resumed.episodes.empty());
    }
}

TEST(FleetCheckpoint, HaltedPrefixPlusResumedSuffixIsTheStraightRun)
{
    const fleet::FleetConfig config = smallConfig(4);
    const FleetCapture straight = runOnce(config, 2);
    const FleetCapture saving = runOnce(config, 2, true);

    for (std::size_t epoch = 1; epoch < 6; ++epoch) {
        const Tick barrier =
            static_cast<Tick>(epoch) * config.slabTicks;
        const FleetCapture halted =
            runOnce(config, 2, true, /*stopAfterTick=*/barrier);
        ASSERT_EQ(halted.checkpoints.size(), epoch);
        EXPECT_EQ(halted.result.haltedAtTick, barrier);

        // The halted run's last snapshot is the straight run's
        // snapshot for that barrier (same bytes), so resume from it.
        EXPECT_EQ(halted.checkpoints.back().first,
                  saving.checkpoints[epoch - 1].first);
        const FleetCapture resumed =
            runOnce(config, 2, false, 0, barrier,
                    &halted.checkpoints.back().first);
        expectStitchesToStraight(straight, halted, resumed);
    }
}

TEST(FleetCheckpoint, SnapshotResumesUnderAnyShardCount)
{
    const fleet::FleetConfig taken = smallConfig(4);
    const FleetCapture saving = runOnce(taken, 2, true);
    ASSERT_GE(saving.checkpoints.size(), 3u);
    const Snapshot &snap = saving.checkpoints[2];

    for (const unsigned shards : {1u, 4u, 16u}) {
        const fleet::FleetConfig target = smallConfig(shards);
        const FleetCapture straight = runOnce(target, 2);
        const FleetCapture resumed = runOnce(
            target, 2, false, 0, snap.second, &snap.first);
        EXPECT_EQ(eventBytes(straight.events),
                  eventBytes(resumed.events))
            << "4-shard snapshot diverged resuming under " << shards
            << " shards";
        EXPECT_EQ(countersLine(straight.result.fleetTotals),
                  countersLine(resumed.result.fleetTotals));
        ASSERT_EQ(resumed.result.shardTotals.size(), shards);

        // The shard-sum == fleetTotals identity survives re-sharding.
        fleet::CohortCounters sum;
        for (const fleet::CohortCounters &shard :
             resumed.result.shardTotals)
            sum.add(shard);
        EXPECT_EQ(countersLine(sum),
                  countersLine(resumed.result.fleetTotals));
    }
}

TEST(FleetCheckpoint, ReshardKeepsEveryDeviceInGlobalOrder)
{
    const fleet::FleetConfig taken = smallConfig(4);
    const FleetCapture saving = runOnce(taken, 2, true);
    ASSERT_GE(saving.checkpoints.size(), 3u);
    fleet::FleetState stored;
    std::string error;
    ASSERT_TRUE(fleet::decodeFleetState(saving.checkpoints[2].first,
                                        taken, stored, error))
        << error;

    // Every column of cohort c, concatenated in shard order.
    const auto columns = [](const fleet::FleetState &state,
                            std::size_t c) {
        fleet::CohortBlock all;
        std::size_t n = 0;
        for (const fleet::ShardState &shard : state.devices)
            n += shard.blocks[c].size();
        all.init(0, n, 0.0);
        std::size_t at = 0;
        for (const fleet::ShardState &shard : state.devices) {
            const fleet::CohortBlock &block = shard.blocks[c];
            EXPECT_EQ(block.firstDevice, at);
            all.copyDevices(at, block, 0, block.size());
            at += block.size();
        }
        return all;
    };

    fleet::FleetState resharded = stored;
    fleet::reshardFleetState(resharded, smallConfig(3));
    ASSERT_EQ(resharded.shards, 3u);
    ASSERT_EQ(resharded.devices.size(), 3u);
    ASSERT_EQ(resharded.shardTotals.size(), 3u);
    for (std::size_t c = 0; c < taken.cohorts.size(); ++c)
        EXPECT_TRUE(columns(resharded, c).columns() ==
                    columns(stored, c).columns())
            << "cohort " << c;
    fleet::CohortCounters before;
    fleet::CohortCounters after;
    for (const fleet::CohortCounters &s : stored.shardTotals)
        before.add(s);
    for (const fleet::CohortCounters &s : resharded.shardTotals)
        after.add(s);
    EXPECT_EQ(countersLine(before), countersLine(after));

    // Under the count it was taken with, the state stays as it is.
    fleet::FleetState same = stored;
    fleet::reshardFleetState(same, taken);
    EXPECT_EQ(encode(same, fleet::fleetFingerprint(taken)),
              saving.checkpoints[2].first);
}

TEST(FleetCheckpoint, ReshardThereAndBackRestoresTheBlob)
{
    // Splitting shards loses nothing: each stored shard's totals land
    // on the first of its target shards and its devices stay in
    // order, so back under the count the snapshot was taken with, the
    // state encodes to the saved bytes again. (Merging shards sums
    // their totals, which no later split can undo.)
    const fleet::FleetConfig taken = smallConfig(4);
    const FleetCapture saving = runOnce(taken, 2, true);
    ASSERT_GE(saving.checkpoints.size(), 3u);
    const std::string &blob = saving.checkpoints[2].first;
    const std::uint64_t fp = fleet::fleetFingerprint(taken);

    for (const unsigned shards : {8u, 16u}) {
        fleet::FleetState state;
        std::string error;
        ASSERT_TRUE(fleet::decodeFleetState(blob, taken, state, error))
            << error;
        fleet::reshardFleetState(state, smallConfig(shards));
        ASSERT_EQ(state.shards, shards);
        fleet::reshardFleetState(state, taken);
        EXPECT_EQ(encode(state, fp), blob)
            << "round trip through " << shards << " shards";
    }
}

TEST(FleetCheckpoint, ResumedRunSavesTheStraightRunsLaterSnapshots)
{
    // A resumed run that keeps checkpointing appends exactly the
    // snapshots the straight run took after its barrier. The replay
    // log in those blobs would differ if the restored events were
    // logged a second time.
    const fleet::FleetConfig config = smallConfig(4);
    const FleetCapture saving = runOnce(config, 2, true);
    ASSERT_EQ(saving.checkpoints.size(), 6u);

    for (const std::size_t from : {std::size_t{0}, std::size_t{3}}) {
        const Snapshot &snap = saving.checkpoints[from];
        const FleetCapture resumed =
            runOnce(config, 2, true, 0, snap.second, &snap.first);
        ASSERT_EQ(resumed.checkpoints.size(),
                  saving.checkpoints.size() - from - 1);
        for (std::size_t i = 0; i < resumed.checkpoints.size(); ++i) {
            EXPECT_EQ(resumed.checkpoints[i].second,
                      saving.checkpoints[from + 1 + i].second);
            EXPECT_EQ(resumed.checkpoints[i].first,
                      saving.checkpoints[from + 1 + i].first)
                << "snapshot diverged at barrier "
                << resumed.checkpoints[i].second << " resuming from "
                << snap.second;
        }
    }
}

TEST(FleetCheckpoint, ResumeIsJobsIndependent)
{
    const fleet::FleetConfig config = smallConfig(8);
    const FleetCapture straight = runOnce(config, 1);
    const FleetCapture saving = runOnce(config, 1, true);
    ASSERT_GE(saving.checkpoints.size(), 4u);
    const Snapshot &snap = saving.checkpoints[3];

    for (const unsigned jobs : {1u, 4u}) {
        const FleetCapture resumed = runOnce(
            config, jobs, false, 0, snap.second, &snap.first);
        EXPECT_EQ(eventBytes(straight.events),
                  eventBytes(resumed.events))
            << "resume diverged at jobs " << jobs;
        EXPECT_EQ(resultLines(straight.result),
                  resultLines(resumed.result));
    }
}

TEST(FleetCheckpoint, CadenceSkipsBarriersButAlwaysSavesTheFinal)
{
    fleet::FleetConfig config = smallConfig(2);
    FleetCapture capture;
    obs::VectorSink sink;

    fleet::FleetOptions options;
    options.jobs = 2;
    options.sink = &sink;
    options.checkpointEverySlabs = 4;
    options.checkpointSink = [&capture](const std::string &state,
                                        Tick tick) {
        capture.checkpoints.emplace_back(state, tick);
    };
    capture.result = fleet::runFleet(config, options);

    // 6 barriers at cadence 4: epoch 4 plus the forced final.
    ASSERT_EQ(capture.checkpoints.size(), 2u);
    EXPECT_EQ(capture.checkpoints[0].second, 4 * config.slabTicks);
    EXPECT_EQ(capture.checkpoints[1].second, config.horizonTicks);
    EXPECT_EQ(capture.result.checkpointsWritten, 2u);
}

// --- Named decode diagnostics ------------------------------------------

TEST(FleetCheckpoint, DecodeRejectsTruncation)
{
    const fleet::FleetConfig config = smallConfig(2);
    const FleetCapture saving = runOnce(config, 2, true);
    ASSERT_FALSE(saving.checkpoints.empty());
    const std::string &blob = saving.checkpoints.front().first;

    fleet::FleetState snap;
    std::string error;
    EXPECT_FALSE(fleet::decodeFleetState(std::string(), config, snap,
                                         error));
    EXPECT_NE(error.find("truncated fleet state"), std::string::npos)
        << error;

    EXPECT_FALSE(fleet::decodeFleetState(
        blob.substr(0, blob.size() / 2), config, snap, error));
    EXPECT_NE(error.find("truncated fleet state"), std::string::npos)
        << error;
}

TEST(FleetCheckpoint, DecodeRejectsTrailingBytes)
{
    const fleet::FleetConfig config = smallConfig(2);
    const FleetCapture saving = runOnce(config, 2, true);
    ASSERT_FALSE(saving.checkpoints.empty());
    std::string blob = saving.checkpoints.front().first;
    blob += '\0';

    fleet::FleetState snap;
    std::string error;
    EXPECT_FALSE(fleet::decodeFleetState(blob, config, snap, error));
    EXPECT_NE(error.find("trailing bytes"), std::string::npos)
        << error;
}

TEST(FleetCheckpoint, DecodeRejectsCohortCountMismatch)
{
    const fleet::FleetConfig config = smallConfig(2);
    const FleetCapture saving = runOnce(config, 2, true);
    ASSERT_FALSE(saving.checkpoints.empty());

    fleet::FleetConfig oneCohort = config;
    oneCohort.cohorts.pop_back();
    fleet::FleetState snap;
    std::string error;
    EXPECT_FALSE(fleet::decodeFleetState(
        saving.checkpoints.front().first, oneCohort, snap, error));
    EXPECT_NE(error.find("cohort count mismatch"), std::string::npos)
        << error;
}

TEST(FleetCheckpoint, DecodeNamesTheShardACorruptSectionHitBy)
{
    const fleet::FleetConfig config = smallConfig(2);
    const FleetCapture saving = runOnce(config, 2, true);
    ASSERT_FALSE(saving.checkpoints.empty());
    std::string blob = saving.checkpoints.front().first;

    // Flip a byte near the end: inside the last shard's section.
    blob[blob.size() - 8] =
        static_cast<char>(blob[blob.size() - 8] ^ 0x01);
    fleet::FleetState snap;
    std::string error;
    EXPECT_FALSE(fleet::decodeFleetState(blob, config, snap, error));
    EXPECT_NE(error.find("shard"), std::string::npos) << error;
    EXPECT_NE(error.find("CRC mismatch"), std::string::npos) << error;
}

TEST(FleetCheckpoint, DecodeRejectsAForeignConfigurationsDevices)
{
    // A snapshot from a config with a different device count carries
    // a different fleet fingerprint, so the per-shard fingerprint
    // check fires before anything else is believed.
    const fleet::FleetConfig taken = smallConfig(2);
    const FleetCapture saving = runOnce(taken, 2, true);
    ASSERT_FALSE(saving.checkpoints.empty());

    fleet::FleetConfig fewer = taken;
    fewer.cohorts[0].devices = 60;
    fleet::FleetState snap;
    std::string error;
    EXPECT_FALSE(fleet::decodeFleetState(
        saving.checkpoints.front().first, fewer, snap, error));
    EXPECT_NE(error.find("fingerprint mismatch"), std::string::npos)
        << error;
}

TEST(FleetCheckpoint, DecodeRejectsBlocksThatDoNotTileTheCohort)
{
    // Defense in depth behind the fingerprint: a blob whose section
    // checksums pass but whose block ranges do not partition the
    // configuration's devices is still rejected. Built by tampering
    // with a decoded snapshot and re-encoding it (which re-seals the
    // CRCs), not by bit-flipping.
    const fleet::FleetConfig config = smallConfig(2);
    const FleetCapture saving = runOnce(config, 2, true);
    ASSERT_FALSE(saving.checkpoints.empty());
    const std::uint64_t fp = fleet::fleetFingerprint(config);

    fleet::FleetState snap;
    std::string error;
    ASSERT_TRUE(fleet::decodeFleetState(
        saving.checkpoints.front().first, config, snap, error))
        << error;
    snap.devices[0].blocks[0].firstDevice += 1;
    EXPECT_FALSE(fleet::decodeFleetState(encode(snap, fp), config, snap,
                                         error));
    EXPECT_NE(error.find("device range mismatch"), std::string::npos)
        << error;
}

/** One device record's wire fields, each as wide as its varint so a
 *  test can write values no column can hold. */
struct DeviceRecord
{
    double charge = 0.0;
    std::int64_t taskTicksLeft = 0;
    std::int64_t phaseTicksLeft = 0;
    std::uint64_t cursor = 0;
    std::uint8_t phase = 0;
    std::uint64_t occupancy = 0;
    std::uint8_t level = 0;
    std::uint8_t scratch = 0;
};

/**
 * `snap` encoded with the first device of shard 0, cohort 0 passed
 * through `patch`. The shard sections are written here in
 * encodeFleetState's layout and sealed with their real fingerprints
 * and CRCs, so only the decoder's value checks stand between a bad
 * record and a resume.
 */
template <typename Patch>
std::string
encodeWithPatchedDevice(fleet::FleetState snap, std::uint64_t fp,
                        Patch patch)
{
    namespace wire = util::wire;
    const std::vector<fleet::ShardState> states = std::move(snap.devices);
    snap.devices.assign(snap.shards, fleet::ShardState{});
    // With no blocks, a shard section is its 8-byte fingerprint: one
    // length byte, the section and a 4-byte CRC per shard.
    std::string blob = encode(snap, fp);
    blob.resize(blob.size() - 13 * snap.shards);
    for (unsigned s = 0; s < snap.shards; ++s) {
        std::string section;
        wire::putFixed64(section, fleet::shardFingerprint(fp, s));
        for (std::size_t c = 0; c < states[s].blocks.size(); ++c) {
            const fleet::CohortBlock &block = states[s].blocks[c];
            wire::putVarint(section, block.firstDevice);
            wire::putVarint(section, block.size());
            for (std::size_t i = 0; i < block.size(); ++i) {
                DeviceRecord d{block.charge[i],   block.taskTicksLeft[i],
                               block.phaseTicksLeft[i], block.cursor[i],
                               block.phase[i],    block.occupancy[i],
                               block.level[i],    block.scratch[i]};
                if (s == 0 && c == 0 && i == 0)
                    patch(d);
                wire::putDouble(section, d.charge);
                wire::putZigzag(section, d.taskTicksLeft);
                wire::putZigzag(section, d.phaseTicksLeft);
                wire::putVarint(section, d.cursor);
                section.push_back(static_cast<char>(d.phase));
                wire::putVarint(section, d.occupancy);
                section.push_back(static_cast<char>(d.level));
                section.push_back(static_cast<char>(d.scratch));
            }
        }
        wire::putBytes(blob, section);
        wire::putFixed32(blob, wire::crc32(section));
    }
    return blob;
}

TEST(FleetCheckpoint, DecodeRejectsOutOfRangeDeviceAndCoordinatorState)
{
    // CRC-valid sections carrying state no run produces must fail
    // decode with a diagnostic naming shard and cohort, not resume
    // into a mid-slab panic or an undefined shift.
    const fleet::FleetConfig config = smallConfig(2);
    const FleetCapture saving = runOnce(config, 2, true);
    ASSERT_FALSE(saving.checkpoints.empty());
    const std::uint64_t fp = fleet::fleetFingerprint(config);
    fleet::FleetState snap;
    std::string error;
    ASSERT_TRUE(fleet::decodeFleetState(
        saving.checkpoints.front().first, config, snap, error))
        << error;

    // The hand-written sections are the real layout: unpatched, the
    // blob is the one the run saved.
    EXPECT_EQ(encodeWithPatchedDevice(snap, fp, [](DeviceRecord &) {}),
              saving.checkpoints.front().first);

    using Patch = void (*)(DeviceRecord &);
    const std::pair<Patch, const char *> devices[] = {
        {[](DeviceRecord &d) { d.phase = 9; }, "unknown device phase"},
        {[](DeviceRecord &d) { d.taskTicksLeft = -1; },
         "negative task or phase timer"},
        {[](DeviceRecord &d) { d.phaseTicksLeft = -1; },
         "negative task or phase timer"},
        {[](DeviceRecord &d) { d.phaseTicksLeft = INT32_MAX + 1ll; },
         "wider than its column"},
        {[](DeviceRecord &d) { d.cursor = UINT32_MAX + 1ull; },
         "wider than its column"},
        {[](DeviceRecord &d) { d.occupancy = UINT16_MAX + 1ull; },
         "wider than its column"},
        {[](DeviceRecord &d) { d.occupancy = 5; }, // buffer holds 4
         "occupancy above the cohort's buffer capacity"},
        {[](DeviceRecord &d) { d.level = fleet::kMaxDegradeLevel + 1; },
         "degradation level above the maximum"},
    };
    for (const auto &[patch, want] : devices) {
        fleet::FleetState decoded;
        EXPECT_FALSE(fleet::decodeFleetState(
            encodeWithPatchedDevice(snap, fp, patch), config, decoded,
            error));
        EXPECT_NE(error.find("shard 0, cohort 0"), std::string::npos)
            << error;
        EXPECT_NE(error.find(want), std::string::npos) << error;
    }

    // Directive levels shift the job length; 64 would be undefined.
    using Tamper = void (*)(fleet::CohortState &);
    const Tamper directives[] = {
        [](fleet::CohortState &c) {
            c.directive.baseLevel = 64;
        },
        [](fleet::CohortState &c) {
            c.directive.pressureLevel = fleet::kMaxDegradeLevel + 1;
        },
        [](fleet::CohortState &c) {
            c.lastBase = fleet::kMaxDegradeLevel + 1;
        },
    };
    for (const Tamper tamper : directives) {
        fleet::FleetState tampered = snap;
        tamper(tampered.coordinator[1]);
        fleet::FleetState decoded;
        EXPECT_FALSE(fleet::decodeFleetState(encode(tampered, fp), config,
                                             decoded, error));
        EXPECT_NE(error.find("cohort 1"), std::string::npos) << error;
        EXPECT_NE(error.find("degradation level above the maximum"),
                  std::string::npos)
            << error;
    }
}

TEST(FleetCheckpoint, DecodeRejectsAMalformedBlob)
{
    const fleet::FleetConfig config = smallConfig(2);
    fleet::FleetState state;
    std::string error;
    EXPECT_FALSE(fleet::decodeFleetState("not a fleet snapshot", config,
                                         state, error));
    EXPECT_NE(error.find("fleet state"), std::string::npos) << error;
}

TEST(FleetCheckpoint, DecodeIntoAUsedStateReplacesIt)
{
    // A reader may decode into the same state more than once: nothing
    // of the earlier snapshot (its shard count, columns, totals or
    // events) survives into the later one.
    const fleet::FleetConfig config = smallConfig(4);
    const FleetCapture saving = runOnce(config, 2, true);
    ASSERT_GE(saving.checkpoints.size(), 2u);
    const std::uint64_t fp = fleet::fleetFingerprint(config);
    const std::string &first = saving.checkpoints.front().first;
    const std::string &last = saving.checkpoints.back().first;

    fleet::FleetState state;
    std::string error;
    ASSERT_TRUE(fleet::decodeFleetState(last, config, state, error))
        << error;
    fleet::reshardFleetState(state, smallConfig(16));
    ASSERT_TRUE(fleet::decodeFleetState(first, config, state, error))
        << error;
    EXPECT_EQ(state.shards, 4u);
    EXPECT_EQ(encode(state, fp), first);

    // A failed decode does not spoil the next decode into the state.
    EXPECT_FALSE(fleet::decodeFleetState(first.substr(0, first.size() / 2),
                                         config, state, error));
    ASSERT_TRUE(fleet::decodeFleetState(last, config, state, error))
        << error;
    EXPECT_EQ(encode(state, fp), last);
}

using FleetCheckpointDeathTest = ::testing::Test;

TEST(FleetCheckpointDeathTest, ResumePanicsOnANonBarrierTick)
{
    const fleet::FleetConfig config = smallConfig(2);
    const FleetCapture saving = runOnce(config, 2, true);
    ASSERT_FALSE(saving.checkpoints.empty());
    fleet::FleetState state;
    std::string error;
    ASSERT_TRUE(fleet::decodeFleetState(saving.checkpoints.front().first,
                                        config, state, error))
        << error;

    fleet::FleetOptions options;
    options.jobs = 1;
    options.resumeTick = config.slabTicks / 2;
    options.resumeState = &state;
    EXPECT_DEATH((void)fleet::runFleet(config, options),
                 "barrier epoch mismatch");
}

} // namespace
