/**
 * @file
 * Scenario engine tests: a compiled plan produces exactly the
 * metrics a direct runExperiment() loop produces, output is
 * bit-identical across jobs counts (the determinism contract), the
 * report renderer prints banner/sections/format lines, CSV lands on
 * disk, and runScenarioFile() turns invalid input into a non-zero
 * exit instead of a crash. A fleet resume is decoded where the
 * stream is read: the engine records the restore episode and turns
 * an impossible state into a fatal naming the stream.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "fleet/checkpoint.hpp"
#include "obs/trace_cursor.hpp"
#include "obs/trace_io.hpp"
#include "scenario/engine.hpp"
#include "scenario/spec.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"

namespace quetzal {
namespace scenario {
namespace {

/** Small, fast scenario: 2 populations x 2 environments, 40 events. */
const char kSmall[] = R"({
  "name": "small",
  "defaults": {"events": 40, "seed": 11, "buffer": 6},
  "populations": [
    {"name": "NA", "controller": "NA"},
    {"name": "QZ", "controller": "QZ"}
  ],
  "sweep": {"axes": [
    {"field": "environment", "values": ["msp430", "crowded"]}]}
})";

ScenarioPlan
compileSmall(const std::string &text = kSmall)
{
    const Expected<ScenarioSpec> spec = parseScenarioText(text);
    EXPECT_TRUE(spec.ok());
    return compileScenario(*spec.value);
}

void
expectSameMetrics(const sim::Metrics &a, const sim::Metrics &b)
{
    EXPECT_EQ(a.interestingDiscardedTotal(),
              b.interestingDiscardedTotal());
    EXPECT_EQ(a.txInterestingTotal(), b.txInterestingTotal());
    EXPECT_EQ(a.jobsCompleted, b.jobsCompleted);
    EXPECT_EQ(a.degradedJobs, b.degradedJobs);
    EXPECT_EQ(a.powerFailures, b.powerFailures);
    EXPECT_EQ(a.simulatedTicks, b.simulatedTicks);
}

TEST(ScenarioEngine, PlanMatchesDirectExperimentRuns)
{
    const ScenarioPlan plan = compileSmall();
    ASSERT_EQ(plan.runs.size(), 4u);

    testing::internal::CaptureStdout();
    EngineOptions options;
    options.jobs = 1;
    const std::vector<sim::Metrics> results = runPlan(plan, options);
    testing::internal::GetCapturedStdout();

    ASSERT_EQ(results.size(), 4u);
    for (std::size_t i = 0; i < plan.runs.size(); ++i) {
        SCOPED_TRACE(i);
        const sim::Metrics direct =
            sim::runExperiment(plan.runs[i].config);
        expectSameMetrics(results[i], direct);
    }
}

TEST(ScenarioEngine, OutputIsIdenticalAcrossJobCounts)
{
    const ScenarioPlan plan = compileSmall();

    testing::internal::CaptureStdout();
    EngineOptions serial;
    serial.jobs = 1;
    const std::vector<sim::Metrics> one = runPlan(plan, serial);
    const std::string serialOut =
        testing::internal::GetCapturedStdout();

    testing::internal::CaptureStdout();
    EngineOptions parallel;
    parallel.jobs = 4;
    const std::vector<sim::Metrics> four = runPlan(plan, parallel);
    const std::string parallelOut =
        testing::internal::GetCapturedStdout();

    EXPECT_EQ(serialOut, parallelOut);
    ASSERT_FALSE(serialOut.empty());
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameMetrics(one[i], four[i]);
    }
}

TEST(ScenarioEngine, ReportRendersBannerSectionsAndLines)
{
    std::string text(kSmall);
    text.insert(text.rfind('}'), R"(,
      "report": {
        "banner": "Test banner",
        "table": ["NA", "QZ"],
        "lines": [{
          "format": "QZ vs NA: %.1fx, hq %.0f%% done",
          "values": [
            {"metric": "discard_ratio", "subject": "QZ",
             "baseline": "NA"},
            {"metric": "hq_share_pct", "subject": "QZ"}]}]
      })");
    const ScenarioPlan plan = compileSmall(text);

    testing::internal::CaptureStdout();
    runPlan(plan, {});
    const std::string out = testing::internal::GetCapturedStdout();

    EXPECT_NE(out.find("\n=== Test banner ===\n"), std::string::npos);
    EXPECT_NE(out.find("\n-- environment: Msp430Short --\n"),
              std::string::npos);
    EXPECT_NE(out.find("\n-- environment: Crowded --\n"),
              std::string::npos);
    // One comparison line per cell, % escapes unescaped.
    EXPECT_NE(out.find("QZ vs NA: "), std::string::npos);
    EXPECT_NE(out.find("% done"), std::string::npos);
    EXPECT_EQ(out.find("%%"), std::string::npos);
    // Table rows label populations.
    EXPECT_NE(out.find("NA "), std::string::npos);
    EXPECT_NE(out.find("QZ "), std::string::npos);
}

TEST(ScenarioEngine, CsvOutputLandsOnDisk)
{
    const std::string path =
        testing::TempDir() + "scenario_engine_test.csv";
    std::string text(kSmall);
    text.insert(text.rfind('}'),
                ",\n  \"output\": {\"csv\": \"" + path + "\"}");
    const ScenarioPlan plan = compileSmall(text);

    testing::internal::CaptureStdout();
    runPlan(plan, {});
    testing::internal::GetCapturedStdout();

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string line;
    std::size_t lines = 0;
    std::getline(in, line);
    EXPECT_EQ(line.rfind("scenario,cell,population,", 0), 0u);
    while (std::getline(in, line))
        ++lines;
    EXPECT_EQ(lines, plan.runs.size());
    std::remove(path.c_str());
}

TEST(ScenarioEngine, BtraceOutputLandsOnDiskAndDecodes)
{
    const std::string path =
        testing::TempDir() + "scenario_engine_test.btrace";
    std::string text(kSmall);
    text.insert(text.rfind('}'),
                ",\n  \"output\": {\"trace\": {\"path\": \"" + path +
                    "\", \"format\": \"btrace\"}}");
    const ScenarioPlan plan = compileSmall(text);

    testing::internal::CaptureStdout();
    runPlan(plan, {});
    testing::internal::GetCapturedStdout();

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.is_open());
    const auto cursor = obs::openTraceCursor(in, path);
    EXPECT_EQ(cursor->format(), obs::TraceFormat::Btrace);
    obs::TraceRecord record;
    std::size_t records = 0;
    std::uint64_t lastRun = 0;
    while (cursor->next(record)) {
        lastRun = record.run;
        ++records;
    }
    EXPECT_GT(records, 0u);
    EXPECT_EQ(lastRun, plan.runs.size() - 1);
    std::remove(path.c_str());
}

TEST(ScenarioEngine, EventCountOverrideShrinksRuns)
{
    const ScenarioPlan plan = compileSmall();
    testing::internal::CaptureStdout();
    EngineOptions options;
    options.eventCountOverride = 5;
    const std::vector<sim::Metrics> results = runPlan(plan, options);
    testing::internal::GetCapturedStdout();
    for (const sim::Metrics &m : results)
        EXPECT_EQ(m.eventsTotal, 5u);
}

TEST(ScenarioEngine, RunScenarioFileRejectsInvalidInput)
{
    const std::string path =
        testing::TempDir() + "scenario_engine_bad.json";
    {
        std::ofstream out(path);
        out << R"({"name": "bad", "populations": [
            {"name": "A", "controller": "WARP"}]})";
    }
    testing::internal::CaptureStderr();
    const int exitCode = runScenarioFile(path, {});
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(exitCode, 1);
    EXPECT_NE(err.find("populations[0].controller"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(ScenarioEngine, RunScenarioFileValidateOnlyDoesNotRun)
{
    const std::string path =
        testing::TempDir() + "scenario_engine_ok.json";
    {
        std::ofstream out(path);
        out << kSmall;
    }
    testing::internal::CaptureStdout();
    EngineOptions options;
    options.validateOnly = true;
    const int exitCode = runScenarioFile(path, options);
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(exitCode, 0);
    EXPECT_NE(out.find("OK"), std::string::npos);
    EXPECT_NE(out.find("2 cells x 2 populations = 4 runs"),
              std::string::npos);
    std::remove(path.c_str());
}

/** Four devices for one simulated hour, six coordinator barriers. */
const char kTinyFleet[] = R"({
  "schema_version": 1, "name": "tiny_fleet",
  "populations": [{"name": "A", "policy": "sjf-ibo"}],
  "fleet": {"shards": 2, "slab_s": 600, "horizon_s": 3600,
            "cohorts": [{"population": "A", "devices": 4,
                         "task_ms": 1000, "task_mw": 12.0}]}
})";

/** kTinyFleet on disk, and the config the engine builds from it. */
std::string
writeTinyFleet(const std::string &name, fleet::FleetConfig &config)
{
    const std::string path = testing::TempDir() + name;
    std::ofstream(path) << kTinyFleet;
    const Expected<ScenarioSpec> spec = parseScenarioText(kTinyFleet);
    EXPECT_TRUE(spec.ok());
    config = buildFleetConfig(*spec.value);
    return path;
}

/** Run the scenario with stdout captured; returns the exit code. */
int
runQuietly(const std::string &path, const EngineOptions &options)
{
    testing::internal::CaptureStdout();
    const int exitCode = runScenarioFile(path, options);
    testing::internal::GetCapturedStdout();
    return exitCode;
}

TEST(ScenarioEngine, FleetResumeRecordsTheRestoreEpisode)
{
    fleet::FleetConfig config;
    const std::string scenario =
        writeTinyFleet("engine_restore.json", config);
    const std::string stream =
        testing::TempDir() + "engine_restore.qzck";
    const std::string episodes =
        testing::TempDir() + "engine_restore.jsonl";

    EngineOptions halt;
    halt.jobs = 1;
    halt.fleetCheckpointPath = stream;
    halt.fleetStopAfterSeconds = 1800;
    ASSERT_EQ(runQuietly(scenario, halt), 0);
    const sim::CheckpointScan scan = sim::readCheckpointStream(
        stream, fleet::fleetFingerprint(config));
    ASSERT_EQ(scan.last.boundaryTick, 1800 * kTicksPerSecond);

    EngineOptions resume;
    resume.jobs = 1;
    resume.fleetResumePath = stream;
    resume.fleetEpisodeTracePath = episodes;
    ASSERT_EQ(runQuietly(scenario, resume), 0);

    std::ifstream in(episodes);
    const std::vector<obs::TraceRecord> records = obs::readJsonl(in);
    ASSERT_EQ(records.size(), 1u);
    const obs::Event &restore = records[0].event;
    EXPECT_EQ(restore.kind, obs::EventKind::FleetRestore);
    EXPECT_EQ(restore.tick, scan.last.boundaryTick);
    EXPECT_EQ(restore.id, 3u); // the third 600 s barrier
    EXPECT_EQ(restore.value,
              static_cast<std::int64_t>(scan.last.state.size()));
    EXPECT_EQ(restore.extra, 2);
    EXPECT_EQ(restore.flags & obs::kFlagTornTail, 0u);
    std::remove(scenario.c_str());
    std::remove(stream.c_str());
    std::remove(episodes.c_str());
}

TEST(ScenarioEngineDeathTest, FleetResumeOfAnImpossibleStateNamesTheFile)
{
    fleet::FleetConfig config;
    const std::string scenario =
        writeTinyFleet("engine_bad_resume.json", config);
    const std::string stream =
        testing::TempDir() + "engine_bad_resume.qzck";

    EngineOptions halt;
    halt.jobs = 1;
    halt.fleetCheckpointPath = stream;
    halt.fleetStopAfterSeconds = 1200;
    ASSERT_EQ(runQuietly(scenario, halt), 0);

    // Re-seal the last record around a state no run produces: the
    // CRC holds, so only the decode can reject it.
    const std::uint64_t fp = fleet::fleetFingerprint(config);
    const sim::CheckpointScan scan = sim::readCheckpointStream(stream, fp);
    fleet::FleetState state;
    std::string error;
    ASSERT_TRUE(fleet::decodeFleetState(scan.last.state, config, state,
                                        error))
        << error;
    state.coordinator[0].directive.baseLevel = 9;
    std::string blob;
    std::string section;
    fleet::encodeFleetState(state, fp, blob, section);
    sim::openCheckpointStream(stream, fp)(blob, scan.last.boundaryTick);

    EngineOptions resume;
    resume.jobs = 1;
    resume.fleetResumePath = stream;
    EXPECT_EXIT((void)runQuietly(scenario, resume),
                testing::ExitedWithCode(1),
                stream + ": fleet resume failed: invalid coordinator "
                         "state");
    std::remove(scenario.c_str());
    std::remove(stream.c_str());
}

} // namespace
} // namespace scenario
} // namespace quetzal
