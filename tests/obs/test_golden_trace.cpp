/**
 * @file
 * Golden-trace regression tests: two small seeded scenarios are
 * serialized to JSONL and compared byte-for-byte against reference
 * files checked into tests/obs/golden/. Any change to the event
 * vocabulary, emission points, field values or serialization shows
 * up here as a diff — intentional changes regenerate the references
 * with:
 *
 *   QUETZAL_REGEN_GOLDEN=1 ./test_obs --gtest_filter='GoldenTrace.*'
 *
 * The Chrome trace_event export of the NoAdapt scenario (two runs:
 * job slices, recharge slices, the occupancy counter and instants
 * of every other kind) is pinned the same way, in
 * noadapt_short.chrome.json.
 *
 * The same serialization is also asserted identical between
 * --jobs 1 and --jobs 4 executions of the ensemble, which is the
 * determinism contract the parallel runner must keep for traces (not
 * just for metrics).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_io.hpp"
#include "obs/trace_sink.hpp"
#include "sim/experiment.hpp"
#include "sim/runner.hpp"

#ifndef QUETZAL_OBS_GOLDEN_DIR
#error "build must define QUETZAL_OBS_GOLDEN_DIR"
#endif

namespace quetzal {
namespace obs {
namespace {

struct GoldenScenario
{
    const char *name;
    sim::ControllerKind controller;
    trace::EnvironmentPreset environment;
    std::size_t runs;
};

const GoldenScenario kScenarios[] = {
    {"quetzal_short", sim::ControllerKind::Quetzal,
     trace::EnvironmentPreset::Msp430Short, 2},
    {"noadapt_short", sim::ControllerKind::NoAdapt,
     trace::EnvironmentPreset::Msp430Short, 2},
};

/** Deliberately tiny: the references live in git. */
sim::ExperimentConfig
scenarioConfig(const GoldenScenario &scenario, std::size_t runIndex)
{
    sim::ExperimentConfig config;
    config.controller = scenario.controller;
    config.environment = scenario.environment;
    config.eventCount = 3;
    config.seed = runIndex + 1;
    config.sim.bufferCapacity = 6;
    config.sim.drainTicks = 10 * kTicksPerSecond;
    return config;
}

/** Run the scenario's ensemble on `jobs` workers; one sink per run. */
std::vector<VectorSink>
recordScenario(const GoldenScenario &scenario, unsigned jobs)
{
    std::vector<VectorSink> sinks(scenario.runs);
    std::vector<sim::ExperimentConfig> configs;
    configs.reserve(scenario.runs);
    for (std::size_t i = 0; i < scenario.runs; ++i) {
        sim::ExperimentConfig config = scenarioConfig(scenario, i);
        config.obsLevel = ObsLevel::Full;
        config.obsSink = &sinks[i];
        configs.push_back(std::move(config));
    }

    sim::ParallelRunner runner(jobs);
    (void)runner.runBatch(configs);
    return sinks;
}

/** Run the scenario's ensemble on `jobs` workers; serialize to JSONL. */
std::string
traceScenario(const GoldenScenario &scenario, unsigned jobs)
{
    const std::vector<VectorSink> sinks = recordScenario(scenario, jobs);
    std::ostringstream out;
    writeJsonlHeader(out);
    for (std::size_t i = 0; i < sinks.size(); ++i)
        writeJsonl(out, sinks[i].events(), i);
    return out.str();
}

/** Run the scenario's ensemble serially; serialize to Chrome JSON. */
std::string
chromeTraceScenario(const GoldenScenario &scenario)
{
    const std::vector<VectorSink> sinks = recordScenario(scenario, 1);
    std::ostringstream out;
    writeChromeTraceHeader(out);
    bool first = true;
    for (std::size_t i = 0; i < sinks.size(); ++i)
        first = writeChromeTrace(out, sinks[i].events(), i, first);
    writeChromeTraceFooter(out);
    return out.str();
}

std::string
goldenPath(const GoldenScenario &scenario, const char *suffix = ".jsonl")
{
    return std::string(QUETZAL_OBS_GOLDEN_DIR) + "/" + scenario.name +
        suffix;
}

/** Compare `trace` with the reference at `path` byte for byte, or
 *  rewrite the reference under QUETZAL_REGEN_GOLDEN. */
void
expectMatchesReference(const std::string &trace, const std::string &path)
{
    ASSERT_FALSE(trace.empty());
    if (std::getenv("QUETZAL_REGEN_GOLDEN") != nullptr) {
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
        << "trace drifted from " << path
        << " — if intentional, regenerate with QUETZAL_REGEN_GOLDEN=1";
}

TEST(GoldenTrace, ScenariosMatchCheckedInReferences)
{
    for (const GoldenScenario &scenario : kScenarios) {
        SCOPED_TRACE(scenario.name);
        expectMatchesReference(traceScenario(scenario, 1),
                               goldenPath(scenario));
    }
}

TEST(GoldenTrace, ChromeExportMatchesCheckedInReference)
{
    // NoAdapt browns out, so its two runs reach every branch of the
    // exporter: job and recharge slices, the occupancy counter and
    // the instant every other kind becomes.
    const GoldenScenario &scenario = kScenarios[1];
    expectMatchesReference(chromeTraceScenario(scenario),
                           goldenPath(scenario, ".chrome.json"));
}

TEST(GoldenTrace, TracesAreIdenticalAcrossJobCounts)
{
    for (const GoldenScenario &scenario : kScenarios) {
        SCOPED_TRACE(scenario.name);
        const std::string serial = traceScenario(scenario, 1);
        const std::string parallel = traceScenario(scenario, 4);
        EXPECT_EQ(serial, parallel);
        ASSERT_FALSE(serial.empty());
    }
}

TEST(GoldenTrace, ReferencesReplayCleanly)
{
    // The checked-in files must parse with the reader (guards against
    // committing a regen from a diverged writer).
    const bool regen = std::getenv("QUETZAL_REGEN_GOLDEN") != nullptr;
    if (regen)
        GTEST_SKIP() << "regenerating";
    for (const GoldenScenario &scenario : kScenarios) {
        SCOPED_TRACE(scenario.name);
        std::ifstream in(goldenPath(scenario), std::ios::binary);
        ASSERT_TRUE(in.is_open());
        const std::vector<TraceRecord> records = readJsonl(in);
        ASSERT_FALSE(records.empty());
        EXPECT_EQ(records.back().run, scenario.runs - 1);
        EXPECT_EQ(records.back().event.kind, EventKind::RunEnd);
    }
}

} // namespace
} // namespace obs
} // namespace quetzal
