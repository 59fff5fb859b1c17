/**
 * @file
 * Golden fault-trace regression tests, mirroring
 * tests/obs/test_golden_trace.cpp for *faulted* runs: a seeded
 * scenario exercising every fault class is serialized to JSONL and
 * compared byte-for-byte against a reference in tests/fault/golden/,
 * asserted identical between --jobs 1 and --jobs 4, and replayed
 * through obs::ReplayCounters so the injected / detected / mitigated
 * totals are pinned as exact numbers. Regenerate intentionally with:
 *
 *   QUETZAL_REGEN_GOLDEN=1 ./test_fault --gtest_filter='GoldenFaultTrace.*'
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "obs/trace_io.hpp"
#include "obs/trace_sink.hpp"
#include "sim/experiment.hpp"
#include "sim/runner.hpp"

#ifndef QUETZAL_FAULT_GOLDEN_DIR
#error "build must define QUETZAL_FAULT_GOLDEN_DIR"
#endif

namespace quetzal {
namespace fault {
namespace {

constexpr std::size_t kRuns = 2;

/**
 * Pinned fault totals of the committed golden reference, summed over
 * both runs (see ReplayCountersPinInjectionTotals). Regenerating the
 * reference re-pins these on purpose.
 */
constexpr std::uint64_t kPinnedInjected = 101;
constexpr std::uint64_t kPinnedDetected = 5;
constexpr std::uint64_t kPinnedMitigated = 3;

/**
 * A small faulted scenario that fires every fault class: persistent
 * measurement bias + noise, an ADC stuck bit, power dropouts and
 * spikes, arrival bursts, capture jitter, and certain execution
 * overruns. Deliberately tiny — the reference lives in git.
 */
sim::ExperimentConfig
faultedConfig(std::size_t runIndex)
{
    sim::ExperimentConfig config;
    config.controller = sim::ControllerKind::Quetzal;
    config.environment = trace::EnvironmentPreset::Msp430Short;
    config.eventCount = 3;
    config.seed = runIndex + 1;
    config.sim.bufferCapacity = 6;
    config.sim.drainTicks = 10 * kTicksPerSecond;

    config.faults.seed = 2026;
    config.faults.measurement.biasWatts = 0.004;
    config.faults.measurement.noiseSigma = 0.05;
    config.faults.adc.stuckHighMask = 0x02;
    config.faults.powerTrace.dropoutsPerHour = 240.0;
    config.faults.powerTrace.dropoutSeconds = 2.0;
    config.faults.powerTrace.spikesPerHour = 240.0;
    config.faults.powerTrace.spikeSeconds = 1.0;
    config.faults.powerTrace.spikeFactor = 3.0;
    config.faults.arrivals.burstsPerHour = 360.0;
    config.faults.arrivals.burstSeconds = 2.0;
    config.faults.arrivals.captureJitterMs = 50;
    config.faults.execution.overrunProbability = 1.0;
    config.faults.execution.overrunFactor = 1.5;
    config.faults.detectErrorSeconds = 0.25;
    config.faults.mitigateStreak = 2;
    return config;
}

/** Run the faulted ensemble on `jobs` workers; serialize to JSONL. */
std::string
traceFaultedScenario(unsigned jobs)
{
    std::vector<obs::VectorSink> sinks(kRuns);
    std::vector<sim::ExperimentConfig> configs;
    configs.reserve(kRuns);
    for (std::size_t i = 0; i < kRuns; ++i) {
        sim::ExperimentConfig config = faultedConfig(i);
        config.obsLevel = obs::ObsLevel::Full;
        config.obsSink = &sinks[i];
        configs.push_back(std::move(config));
    }

    sim::ParallelRunner runner(jobs);
    (void)runner.runBatch(configs);

    std::ostringstream out;
    obs::writeJsonlHeader(out);
    for (std::size_t i = 0; i < sinks.size(); ++i)
        obs::writeJsonl(out, sinks[i].events(), i);
    return out.str();
}

std::string
goldenPath()
{
    return std::string(QUETZAL_FAULT_GOLDEN_DIR) +
        "/faulted_quetzal_short.jsonl";
}

TEST(GoldenFaultTrace, MatchesCheckedInReference)
{
    const bool regen = std::getenv("QUETZAL_REGEN_GOLDEN") != nullptr;
    const std::string trace = traceFaultedScenario(1);
    ASSERT_FALSE(trace.empty());

    const std::string path = goldenPath();
    if (regen) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.is_open()) << path;
        out << trace;
        return;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.is_open())
        << path << " missing — regenerate with QUETZAL_REGEN_GOLDEN=1";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(trace, expected.str())
        << "faulted trace drifted from " << path
        << " — if intentional, regenerate with QUETZAL_REGEN_GOLDEN=1";
}

TEST(GoldenFaultTrace, IdenticalAcrossJobCounts)
{
    const std::string serial = traceFaultedScenario(1);
    const std::string parallel = traceFaultedScenario(4);
    EXPECT_EQ(serial, parallel);
    ASSERT_FALSE(serial.empty());
}

TEST(GoldenFaultTrace, EveryFaultClassAppearsAsTypedEvent)
{
    const std::string trace = traceFaultedScenario(1);
    std::istringstream in(trace);
    const std::vector<obs::TraceRecord> records = obs::readJsonl(in);
    ASSERT_FALSE(records.empty());

    std::vector<bool> seen(kFaultClassCount, false);
    for (const obs::TraceRecord &record : records) {
        if (record.event.kind != obs::EventKind::FaultInjected)
            continue;
        const auto cls = static_cast<std::size_t>(record.event.value);
        ASSERT_LT(cls, kFaultClassCount);
        seen[cls] = true;
    }
    for (std::size_t cls = 0; cls < kFaultClassCount; ++cls)
        EXPECT_TRUE(seen[cls])
            << "no FaultInjected event for class " << cls;
}

TEST(GoldenFaultTrace, ReplayCountersPinInjectionTotals)
{
    const bool regen = std::getenv("QUETZAL_REGEN_GOLDEN") != nullptr;
    if (regen)
        GTEST_SKIP() << "regenerating";

    std::ifstream in(goldenPath(), std::ios::binary);
    ASSERT_TRUE(in.is_open());
    const std::vector<obs::TraceRecord> records = obs::readJsonl(in);
    ASSERT_FALSE(records.empty());

    obs::MetricsRegistry registry;
    for (const obs::TraceRecord &record : records)
        registry.record(record.event);
    const obs::ReplayCounters &counters = registry.counters();

    // Exact totals of the committed reference: any change to fault
    // timing, emission points or the episode machine moves these.
    EXPECT_EQ(counters.faultsInjected, kPinnedInjected);
    EXPECT_EQ(counters.faultsDetected, kPinnedDetected);
    EXPECT_EQ(counters.faultsMitigated, kPinnedMitigated);
    EXPECT_GT(counters.faultsInjected, 0u);
    EXPECT_GT(counters.faultsDetected, 0u);
}

} // namespace
} // namespace fault
} // namespace quetzal
