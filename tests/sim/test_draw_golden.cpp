/**
 * @file
 * Randomized-draw golden: twelve seeded experiment draws over every
 * environment preset (Msp430Short included), the QZ/FCFS/LCFS/NA/
 * CatNap/Ideal controllers and six fault models (inert, measurement
 * bias/noise, ADC flip/stuck masks, power dropouts/spikes, arrival
 * bursts with capture jitter, execution overruns; the two the seeded
 * draws miss are pinned on a fixed configuration), plus one run with
 * log-normal execution jitter. Each draw is pinned by one line in
 * tests/sim/golden/draws.txt: its description and an FNV-1a 64
 * digest of the full-level JSONL trace followed by every Metrics
 * field at round-trip precision. Fault timing and execution jitter
 * consume RNG draws, so any reordering of system instants surfaces
 * here first. An intentional behaviour change regenerates the file
 * with:
 *
 *   QUETZAL_REGEN_GOLDEN=1 ./test_sim \
 *       --gtest_filter='DrawGolden.FileListsEveryDrawInOrder'
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_io.hpp"
#include "obs/trace_sink.hpp"
#include "sim/experiment.hpp"

#ifndef QUETZAL_SIM_GOLDEN_DIR
#error "build must define QUETZAL_SIM_GOLDEN_DIR"
#endif

namespace quetzal {
namespace sim {
namespace {

struct Draw
{
    std::string description;
    ExperimentConfig config;
};

void
putField(std::ostream &out, std::uint64_t value)
{
    out << ' ' << value;
}

void
putField(std::ostream &out, double value)
{
    char text[40];
    std::snprintf(text, sizeof text, "%.17g", value);
    out << ' ' << text;
}

void
putStats(std::ostream &out, const util::RunningStats &stats)
{
    const util::RunningStats::State st = stats.exportState();
    putField(out, static_cast<std::uint64_t>(st.n));
    putField(out, st.runningMean);
    putField(out, st.m2);
    putField(out, st.minSample);
    putField(out, st.maxSample);
    putField(out, st.total);
}

std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** One run's observable timeline (obs stream + metrics), serialized. */
struct Fingerprint
{
    std::string bytes;
    std::uint64_t jobsCompleted = 0;
};

Fingerprint
runFingerprint(ExperimentConfig config)
{
    obs::VectorSink sink;
    config.obsLevel = obs::ObsLevel::Full;
    config.obsSink = &sink;
    const Metrics m = runExperiment(config);

    std::ostringstream out;
    obs::writeJsonlHeader(out);
    obs::writeJsonl(out, sink.events(), 0);
    // Fold the metrics in as well: the trace alone would not notice a
    // divergence in a quantity no event carries (e.g. scheduler
    // overhead accounting).
    for (const std::uint64_t value :
         {m.eventsTotal, m.eventsInteresting, m.interestingInputsNominal,
          m.captures, m.interestingCaptured, m.uninterestingCaptured,
          m.storedInputs, m.iboDropsInteresting, m.iboDropsUninteresting,
          m.fnDiscards, m.fpPositives, m.unprocessedInteresting,
          m.txInterestingHq, m.txInterestingLq, m.txUninterestingHq,
          m.txUninterestingLq, m.jobsCompleted, m.degradedJobs,
          m.iboPredictions, m.powerFailures, m.checkpointSaves,
          static_cast<std::uint64_t>(m.rechargeTicks),
          static_cast<std::uint64_t>(m.activeTicks),
          static_cast<std::uint64_t>(m.rolledBackTicks),
          static_cast<std::uint64_t>(m.simulatedTicks),
          m.deadlineMisses})
        putField(out, value);
    for (const double value :
         {m.energyWastedJoules, m.schedulerOverheadSeconds,
          m.schedulerOverheadEnergy, m.telemetryOverheadSeconds,
          m.telemetryOverheadEnergy})
        putField(out, value);
    putStats(out, m.jobServiceSeconds);
    putStats(out, m.predictionErrorSeconds);
    out << '\n';
    return {out.str(), m.jobsCompleted};
}

/** Fault model `index` (0..5) and its name; model 0 is inert. */
std::pair<const char *, fault::FaultSpec>
faultModel(std::uint64_t index, std::uint64_t seed)
{
    fault::FaultSpec spec;
    spec.seed = seed;
    switch (index) {
    case 0: // inert: the clean path is pinned too
        return {"none", spec};
    case 1:
        spec.measurement.biasWatts = 0.002;
        spec.measurement.noiseSigma = 0.1;
        return {"measurement", spec};
    case 2:
        spec.adc.flipMask = 0x04;
        spec.adc.stuckHighMask = 0x01;
        return {"adc", spec};
    case 3:
        spec.powerTrace.dropoutsPerHour = 40.0;
        spec.powerTrace.dropoutSeconds = 2.0;
        spec.powerTrace.spikesPerHour = 20.0;
        spec.powerTrace.spikeSeconds = 1.0;
        spec.powerTrace.spikeFactor = 3.0;
        return {"power", spec};
    case 4:
        spec.arrivals.burstsPerHour = 30.0;
        spec.arrivals.burstSeconds = 3.0;
        spec.arrivals.captureJitterMs = 120;
        return {"arrivals", spec};
    default:
        spec.execution.overrunProbability = 0.2;
        spec.execution.overrunFactor = 1.8;
        return {"overrun", spec};
    }
}

std::string
describe(const ExperimentConfig &config)
{
    std::ostringstream out;
    out << "env=" << trace::environmentName(config.environment)
        << " ctl=" << controllerKindName(config.controller)
        << " events=" << config.eventCount << " seed=" << config.seed
        << " cap=" << config.sim.bufferCapacity;
    return out.str();
}

/**
 * The twelve seeded draws, the two fault models they miss, then the
 * execution-jitter run.
 */
std::vector<Draw>
goldenDraws()
{
    const trace::EnvironmentPreset presets[] = {
        trace::EnvironmentPreset::MoreCrowded,
        trace::EnvironmentPreset::Crowded,
        trace::EnvironmentPreset::LessCrowded,
        trace::EnvironmentPreset::Msp430Short,
    };
    const ControllerKind controllers[] = {
        ControllerKind::Quetzal,   ControllerKind::QuetzalFcfs,
        ControllerKind::QuetzalLcfs, ControllerKind::NoAdapt,
        ControllerKind::CatNap,    ControllerKind::Ideal,
    };

    std::vector<Draw> draws;
    std::mt19937_64 rng(20260807);
    for (int draw = 0; draw < 12; ++draw) {
        ExperimentConfig config;
        config.environment = presets[rng() % 4];
        config.controller = controllers[rng() % 6];
        config.eventCount = 10 + rng() % 30;
        config.seed = rng() % 10000 + 1;
        config.sim.bufferCapacity = 4 + rng() % 12;
        config.sim.drainTicks = 30 * kTicksPerSecond;
        const std::uint64_t faultSeed = rng() % 1000 + 1;
        const auto [faultName, faults] = faultModel(rng() % 6, faultSeed);
        config.faults = faults;
        draws.push_back({"draw" + std::to_string(draw) + ' ' +
                             describe(config) + " faults=" + faultName,
                         config});
    }

    // The seeded draws never land on the power or overrun models, so
    // pin each once on a fixed configuration.
    for (const std::uint64_t index : {3u, 5u}) {
        ExperimentConfig config;
        config.environment = trace::EnvironmentPreset::Crowded;
        config.eventCount = 30;
        config.seed = 7;
        config.sim.bufferCapacity = 8;
        config.sim.drainTicks = 30 * kTicksPerSecond;
        const auto [faultName, faults] = faultModel(index, 11);
        config.faults = faults;
        draws.push_back({std::string("fixed ") + describe(config) +
                             " faults=" + faultName,
                         config});
    }

    // Per-task execution jitter draws from the run RNG on every
    // dispatch; any reordering of dispatch instants desynchronizes
    // the stream immediately.
    ExperimentConfig jitter;
    jitter.environment = trace::EnvironmentPreset::Crowded;
    jitter.eventCount = 30;
    jitter.seed = 11;
    jitter.sim.executionJitterSigma = 0.05;
    draws.push_back({"jitter " + describe(jitter) + " sigma=0.05", jitter});
    return draws;
}

std::string
goldenLine(const std::string &description, const Fingerprint &print)
{
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(print.bytes)));
    return description + " digest=" + hex;
}

std::string
goldenPath()
{
    return std::string(QUETZAL_SIM_GOLDEN_DIR) + "/draws.txt";
}

std::vector<std::string>
readGoldenLines()
{
    std::vector<std::string> lines;
    std::ifstream in(goldenPath(), std::ios::binary);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/** The description part of a golden line (everything before the digest). */
std::string
lineDescription(const std::string &line)
{
    const std::size_t at = line.rfind(" digest=");
    return at == std::string::npos ? line : line.substr(0, at);
}

/**
 * The file lists every draw once, in order, and nothing else. This is
 * also the regeneration entry point: it runs every draw and rewrites
 * the file.
 */
TEST(DrawGolden, FileListsEveryDrawInOrder)
{
    const std::vector<Draw> draws = goldenDraws();

    if (std::getenv("QUETZAL_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(goldenPath(), std::ios::binary);
        ASSERT_TRUE(out.is_open()) << goldenPath();
        for (const Draw &draw : draws)
            out << goldenLine(draw.description, runFingerprint(draw.config))
                << '\n';
        return;
    }

    const std::vector<std::string> lines = readGoldenLines();
    ASSERT_FALSE(lines.empty())
        << goldenPath() << " missing — regenerate with QUETZAL_REGEN_GOLDEN=1";
    ASSERT_EQ(lines.size(), draws.size());
    for (std::size_t i = 0; i < draws.size(); ++i)
        EXPECT_EQ(lineDescription(lines[i]), draws[i].description)
            << "line " << i + 1;
}

/** One test per draw, so a drift names the configuration that moved. */
class DrawGoldenLine : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(DrawGoldenLine, MatchesCheckedInReference)
{
    const std::vector<Draw> draws = goldenDraws();
    const std::size_t index = GetParam();
    ASSERT_LT(index, draws.size());
    const Draw &draw = draws[index];

    const std::vector<std::string> lines = readGoldenLines();
    ASSERT_LT(index, lines.size())
        << goldenPath() << " has no line for " << draw.description
        << " — regenerate with QUETZAL_REGEN_GOLDEN=1";

    const Fingerprint print = runFingerprint(draw.config);
    // A draw that never completes a job would be pinned vacuously.
    EXPECT_GT(print.jobsCompleted, 0u) << draw.description;
    EXPECT_EQ(goldenLine(draw.description, print), lines[index]);
}

// Twelve seeded draws, the power and overrun fixed draws, the jitter
// run; FileListsEveryDrawInOrder fails if goldenDraws() outgrows this.
INSTANTIATE_TEST_SUITE_P(Draws, DrawGoldenLine,
                         ::testing::Range<std::size_t>(0, 15));

} // namespace
} // namespace sim
} // namespace quetzal
