/**
 * @file
 * Checkpoint/restore golden tests (DESIGN.md section 16).
 *
 * The contract under test: a checkpointing run is byte-identical to
 * a clean one (saving observes, never perturbs), and a run resumed
 * from any checkpoint blob replays the uninterrupted run's
 * observable timeline exactly — same final metrics, and an obs event
 * stream equal to the straight run's suffix from the boundary tick
 * on. Because the checkpoint hook fires before any of the boundary
 * instant's events, a stopped segment's stream concatenates with the
 * resumed segment's into the straight run's stream byte-for-byte.
 *
 * The QZCK archive framing (magic/version/CRC/fingerprint) is
 * exercised at the bottom: corruption and version skew must fail
 * loudly, and the fingerprint must separate configurations while
 * ignoring output plumbing.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_io.hpp"
#include "obs/trace_sink.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "sim/runner.hpp"

#ifndef QUETZAL_SIM_GOLDEN_DIR
#error "build must define QUETZAL_SIM_GOLDEN_DIR"
#endif

namespace quetzal {
namespace sim {
namespace {

/** One collected checkpoint: the state blob and its boundary tick. */
using Snapshot = std::pair<std::string, Tick>;

/** Everything observable about one run. */
struct RunCapture
{
    Metrics metrics;
    std::vector<obs::Event> events;
    std::vector<Snapshot> checkpoints;
};

/** Small but non-trivial experiment: jobs, drops, adaptation. */
ExperimentConfig
baseConfig(std::uint64_t seed = 42)
{
    ExperimentConfig config;
    config.eventCount = 120;
    config.seed = seed;
    config.sim.drainTicks = 60 * kTicksPerSecond;
    config.obsLevel = obs::ObsLevel::Full;
    return config;
}

RunCapture
runCaptured(ExperimentConfig config, std::uint64_t everyCaptures = 0,
            bool stop = false, const std::string *resume = nullptr)
{
    obs::VectorSink sink;
    config.obsSink = &sink;
    RunCapture capture;
    config.sim.checkpointEveryCaptures = everyCaptures;
    config.sim.checkpointStop = stop;
    config.sim.resumeState = resume;
    if (everyCaptures > 0) {
        config.sim.checkpointSink = [&capture](std::string &&state,
                                               Tick now) {
            capture.checkpoints.emplace_back(std::move(state), now);
        };
    }
    capture.metrics = runExperiment(config);
    capture.events = sink.events();
    return capture;
}

/** Serialize an event stream the way the golden-trace tests do. */
std::string
eventBytes(const std::vector<obs::Event> &events)
{
    std::ostringstream out;
    obs::writeJsonlHeader(out);
    obs::writeJsonl(out, events, 0);
    return out.str();
}

/** Serialize every metrics field the event stream cannot see. */
std::string
metricsLine(const Metrics &m)
{
    std::ostringstream out;
    out << m.eventsTotal << ' ' << m.eventsInteresting << ' '
        << m.interestingInputsNominal << ' ' << m.captures << ' '
        << m.interestingCaptured << ' ' << m.uninterestingCaptured
        << ' ' << m.storedInputs << ' ' << m.iboDropsInteresting
        << ' ' << m.iboDropsUninteresting << ' ' << m.fnDiscards
        << ' ' << m.fpPositives << ' ' << m.unprocessedInteresting
        << ' ' << m.txInterestingHq << ' ' << m.txInterestingLq
        << ' ' << m.txUninterestingHq << ' ' << m.txUninterestingLq
        << ' ' << m.jobsCompleted << ' ' << m.degradedJobs << ' '
        << m.iboPredictions << ' ' << m.powerFailures << ' '
        << m.checkpointSaves << ' ' << m.rechargeTicks << ' '
        << m.activeTicks << ' ' << m.rolledBackTicks << ' '
        << m.simulatedTicks << ' ' << m.deadlineMisses << ' '
        << m.energyWastedJoules << ' ' << m.schedulerOverheadSeconds
        << ' ' << m.schedulerOverheadEnergy << ' '
        << m.telemetryOverheadSeconds << ' '
        << m.telemetryOverheadEnergy << ' '
        << m.jobServiceSeconds.count() << ' '
        << m.jobServiceSeconds.sum() << ' '
        << m.predictionErrorSeconds.count() << ' '
        << m.predictionErrorSeconds.sum();
    return out.str();
}

/** The straight run's events from `boundary` on (seg2's share). */
std::vector<obs::Event>
suffixFrom(const std::vector<obs::Event> &events, Tick boundary)
{
    std::vector<obs::Event> suffix;
    for (const obs::Event &event : events) {
        if (event.tick >= boundary)
            suffix.push_back(event);
    }
    return suffix;
}

/** Events strictly before `boundary` (seg1's share). */
std::vector<obs::Event>
prefixBefore(const std::vector<obs::Event> &events, Tick boundary)
{
    std::vector<obs::Event> prefix;
    for (const obs::Event &event : events) {
        if (event.tick < boundary)
            prefix.push_back(event);
    }
    return prefix;
}

TEST(CheckpointResume, CheckpointingIsByteInert)
{
    const RunCapture clean = runCaptured(baseConfig());
    const RunCapture saving = runCaptured(baseConfig(), 40);

    ASSERT_GE(saving.checkpoints.size(), 2u);
    for (const Snapshot &snap : saving.checkpoints)
        EXPECT_FALSE(snap.first.empty());
    EXPECT_EQ(eventBytes(clean.events), eventBytes(saving.events));
    EXPECT_EQ(metricsLine(clean.metrics), metricsLine(saving.metrics));
}

TEST(CheckpointResume, ResumeAtEveryBoundaryReplaysTheStraightRun)
{
    const RunCapture straight = runCaptured(baseConfig());
    const RunCapture saving = runCaptured(baseConfig(), 40);
    ASSERT_GE(saving.checkpoints.size(), 2u);

    // Cap the loop: each resume is a full run, and the boundaries all
    // exercise the same machinery.
    const std::size_t limit = saving.checkpoints.size() < 6
        ? saving.checkpoints.size() : 6;
    for (std::size_t i = 0; i < limit; ++i) {
        const Snapshot &snap = saving.checkpoints[i];
        const RunCapture resumed =
            runCaptured(baseConfig(), 0, false, &snap.first);

        EXPECT_EQ(metricsLine(straight.metrics),
                  metricsLine(resumed.metrics))
            << "metrics diverged resuming from boundary " << snap.second;
        EXPECT_EQ(eventBytes(suffixFrom(straight.events, snap.second)),
                  eventBytes(resumed.events))
            << "event stream diverged resuming from boundary "
            << snap.second;
    }
}

TEST(CheckpointResume, StopSegmentConcatenatesWithResume)
{
    const RunCapture straight = runCaptured(baseConfig());

    // Segment 1: run until the first checkpoint fires, then stop.
    const RunCapture seg1 = runCaptured(baseConfig(), 40, true);
    ASSERT_EQ(seg1.checkpoints.size(), 1u);
    const Tick boundary = seg1.checkpoints.front().second;
    EXPECT_EQ(seg1.metrics.simulatedTicks, boundary);
    EXPECT_EQ(eventBytes(prefixBefore(straight.events, boundary)),
              eventBytes(seg1.events));

    // Segment 2: resume from the blob and run to the end.
    const RunCapture seg2 = runCaptured(
        baseConfig(), 0, false, &seg1.checkpoints.front().first);
    std::vector<obs::Event> stitched = seg1.events;
    stitched.insert(stitched.end(), seg2.events.begin(),
                    seg2.events.end());
    EXPECT_EQ(eventBytes(straight.events), eventBytes(stitched));
    EXPECT_EQ(metricsLine(straight.metrics), metricsLine(seg2.metrics));
}

TEST(CheckpointResume, FaultedRunResumes)
{
    // Exercise every RNG-bearing fault seam across the boundary:
    // measurement noise, capture jitter, execution overruns, power
    // windows and the detection/mitigation episode tracker.
    ExperimentConfig config = baseConfig(7);
    config.faults.seed = 11;
    config.faults.measurement.biasWatts = 0.002;
    config.faults.measurement.noiseSigma = 0.1;
    config.faults.powerTrace.dropoutsPerHour = 40.0;
    config.faults.powerTrace.dropoutSeconds = 2.0;
    config.faults.arrivals.burstsPerHour = 30.0;
    config.faults.arrivals.burstSeconds = 3.0;
    config.faults.arrivals.captureJitterMs = 120;
    config.faults.execution.overrunProbability = 0.2;
    config.faults.execution.overrunFactor = 1.8;

    const RunCapture straight = runCaptured(config);
    const RunCapture saving = runCaptured(config, 50);
    ASSERT_GE(saving.checkpoints.size(), 2u);

    const Snapshot &snap = saving.checkpoints[1];
    const RunCapture resumed = runCaptured(config, 0, false, &snap.first);
    EXPECT_EQ(metricsLine(straight.metrics),
              metricsLine(resumed.metrics));
    EXPECT_EQ(eventBytes(suffixFrom(straight.events, snap.second)),
              eventBytes(resumed.events));
}

TEST(CheckpointResume, JitterAndTelemetryCostsCarryAcrossResume)
{
    // Execution jitter consumes the simulator's own jitter RNG;
    // nonzero telemetry rates exercise the uncharged-tail carry (the
    // resumed recorder counts from zero, so the watermark goes
    // negative).
    ExperimentConfig config = baseConfig(13);
    config.sim.executionJitterSigma = 0.2;
    config.sim.telemetrySecondsPerEvent = 1e-6;
    config.sim.telemetryEnergyPerEvent = 2e-8;

    const RunCapture straight = runCaptured(config);
    EXPECT_GT(straight.metrics.telemetryOverheadSeconds, 0.0);

    const RunCapture saving = runCaptured(config, 40);
    ASSERT_GE(saving.checkpoints.size(), 2u);
    const Snapshot &snap = saving.checkpoints[1];
    const RunCapture resumed = runCaptured(config, 0, false, &snap.first);
    EXPECT_EQ(metricsLine(straight.metrics),
              metricsLine(resumed.metrics));
    EXPECT_EQ(eventBytes(suffixFrom(straight.events, snap.second)),
              eventBytes(resumed.events));
}

// --- Committed resume golden -------------------------------------------
//
// The acceptance artifact: a checked-in straight-run trace that both
// the uninterrupted batch (at --jobs 1 and 4) and the stop+resume
// stitched segments must reproduce byte-for-byte. Regenerate with
//   QUETZAL_REGEN_GOLDEN=1 ./test_sim --gtest_filter='ResumeGolden.*'

constexpr std::size_t kGoldenRuns = 2;
constexpr std::uint64_t kGoldenEvery = 5;

/** Deliberately tiny: the reference lives in git. */
ExperimentConfig
goldenConfig(std::size_t runIndex)
{
    ExperimentConfig config;
    config.environment = trace::EnvironmentPreset::Msp430Short;
    config.eventCount = 3;
    config.seed = runIndex + 1;
    config.sim.bufferCapacity = 6;
    config.sim.drainTicks = 10 * kTicksPerSecond;
    config.obsLevel = obs::ObsLevel::Full;
    return config;
}

std::string
resumeGoldenPath()
{
    return std::string(QUETZAL_SIM_GOLDEN_DIR) + "/resume_straight.jsonl";
}

/** The straight batch on `jobs` workers, serialized like the CLI. */
std::string
straightBatchBytes(unsigned jobs)
{
    std::vector<obs::VectorSink> sinks(kGoldenRuns);
    std::vector<ExperimentConfig> configs;
    configs.reserve(kGoldenRuns);
    for (std::size_t i = 0; i < kGoldenRuns; ++i) {
        ExperimentConfig config = goldenConfig(i);
        config.obsSink = &sinks[i];
        configs.push_back(std::move(config));
    }

    ParallelRunner runner(jobs);
    (void)runner.runBatch(configs);

    std::ostringstream out;
    obs::writeJsonlHeader(out);
    for (std::size_t i = 0; i < sinks.size(); ++i)
        obs::writeJsonl(out, sinks[i].events(), i);
    return out.str();
}

/** Every run split at its first checkpoint, then stitched back. */
std::string
stitchedBatchBytes()
{
    std::ostringstream out;
    obs::writeJsonlHeader(out);
    for (std::size_t i = 0; i < kGoldenRuns; ++i) {
        const RunCapture seg1 =
            runCaptured(goldenConfig(i), kGoldenEvery, true);
        EXPECT_EQ(seg1.checkpoints.size(), 1u)
            << "run " << i << " never reached a checkpoint boundary";
        if (seg1.checkpoints.empty())
            continue;
        const RunCapture seg2 = runCaptured(
            goldenConfig(i), 0, false, &seg1.checkpoints.front().first);
        std::vector<obs::Event> stitched = seg1.events;
        stitched.insert(stitched.end(), seg2.events.begin(),
                        seg2.events.end());
        obs::writeJsonl(out, stitched, i);
    }
    return out.str();
}

TEST(ResumeGolden, StraightBatchMatchesCommittedReference)
{
    const std::string path = resumeGoldenPath();
    const bool regen = std::getenv("QUETZAL_REGEN_GOLDEN") != nullptr;
    if (regen) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << straightBatchBytes(1);
        ASSERT_TRUE(out.good());
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path
        << " missing — regenerate with QUETZAL_REGEN_GOLDEN=1";
    std::ostringstream bytes;
    bytes << in.rdbuf();
    const std::string golden = bytes.str();

    for (const unsigned jobs : {1u, 4u}) {
        EXPECT_EQ(golden, straightBatchBytes(jobs))
            << "straight batch diverged from " << path << " at --jobs "
            << jobs
            << " — if intentional, regenerate with QUETZAL_REGEN_GOLDEN=1";
    }
}

TEST(ResumeGolden, StitchedStopResumeMatchesCommittedReference)
{
    const std::string path = resumeGoldenPath();
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path
        << " missing — regenerate with QUETZAL_REGEN_GOLDEN=1";
    std::ostringstream bytes;
    bytes << in.rdbuf();

    EXPECT_EQ(bytes.str(), stitchedBatchBytes())
        << "stop+resume stitched trace diverged from the committed "
           "straight-run reference " << path;
}

// --- QZCK archive framing ----------------------------------------------

TEST(CheckpointArchive, FrameRoundTrips)
{
    const std::string state = "not a real blob, any bytes do";
    const std::string framed = frameCheckpoint(state, 0xabcdefull, 4200);

    CheckpointArchive archive;
    std::string error;
    ASSERT_TRUE(unframeCheckpoint(framed, archive, error)) << error;
    EXPECT_EQ(archive.fingerprint, 0xabcdefull);
    EXPECT_EQ(archive.boundaryTick, 4200);
    EXPECT_EQ(archive.state, state);
}

TEST(CheckpointArchive, RejectsCorruption)
{
    const std::string framed =
        frameCheckpoint("payload bytes", 1, 1000);
    CheckpointArchive archive;
    std::string error;

    // Truncated.
    EXPECT_FALSE(unframeCheckpoint(
        framed.substr(0, framed.size() - 3), archive, error));
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;

    // Flipped state byte -> CRC mismatch.
    std::string corrupt = framed;
    corrupt.back() = static_cast<char>(corrupt.back() ^ 0x40);
    EXPECT_FALSE(unframeCheckpoint(corrupt, archive, error));
    EXPECT_NE(error.find("CRC"), std::string::npos) << error;

    // Bad magic.
    std::string wrongMagic = framed;
    wrongMagic[0] = 'X';
    EXPECT_FALSE(unframeCheckpoint(wrongMagic, archive, error));
    EXPECT_NE(error.find("magic"), std::string::npos) << error;

    // Unsupported major version.
    std::string futureMajor = framed;
    futureMajor[4] = static_cast<char>(kCheckpointMajor + 1);
    EXPECT_FALSE(unframeCheckpoint(futureMajor, archive, error));
    EXPECT_NE(error.find("version"), std::string::npos) << error;

    // Empty input.
    EXPECT_FALSE(unframeCheckpoint(std::string(), archive, error));
}

TEST(CheckpointArchive, FingerprintSeparatesConfigsButNotOutputPlumbing)
{
    const ExperimentConfig base = baseConfig();
    const std::uint64_t fp = experimentFingerprint(base);

    ExperimentConfig otherSeed = base;
    otherSeed.seed = base.seed + 1;
    EXPECT_NE(fp, experimentFingerprint(otherSeed));

    ExperimentConfig otherController = base;
    otherController.controller = ControllerKind::NoAdapt;
    EXPECT_NE(fp, experimentFingerprint(otherController));

    ExperimentConfig otherBuffer = base;
    otherBuffer.sim.bufferCapacity = base.sim.bufferCapacity + 1;
    EXPECT_NE(fp, experimentFingerprint(otherBuffer));

    // Output plumbing must not matter.
    ExperimentConfig otherObs = base;
    otherObs.obsSink = nullptr;
    EXPECT_EQ(fp, experimentFingerprint(otherObs));
}

} // namespace
} // namespace sim
} // namespace quetzal
