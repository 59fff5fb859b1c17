/**
 * @file
 * ScenarioSpec front-door tests: valid scenarios round-trip into the
 * expected spec, every class of invalid input produces an
 * expected-style error naming the offending JSON field path (never a
 * crash or a silent default).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "scenario/compile.hpp"
#include "scenario/spec.hpp"

namespace quetzal {
namespace scenario {
namespace {

ScenarioSpec
parseOk(const std::string &text)
{
    const Expected<ScenarioSpec> result = parseScenarioText(text);
    EXPECT_TRUE(result.ok());
    for (const SpecError &error : result.errors)
        ADD_FAILURE() << error.describe();
    return result.value.value_or(ScenarioSpec{});
}

/** All error paths of an expected-invalid parse. */
std::vector<std::string>
errorPaths(const std::string &text)
{
    const Expected<ScenarioSpec> result = parseScenarioText(text);
    EXPECT_FALSE(result.ok());
    EXPECT_FALSE(result.value.has_value());
    std::vector<std::string> paths;
    paths.reserve(result.errors.size());
    for (const SpecError &error : result.errors)
        paths.push_back(error.path);
    return paths;
}

bool
contains(const std::vector<std::string> &paths, const std::string &p)
{
    return std::find(paths.begin(), paths.end(), p) != paths.end();
}

const char kMinimal[] = R"({
  "name": "minimal",
  "populations": [{"name": "QZ", "controller": "QZ"}]
})";

TEST(ScenarioSpecParse, MinimalScenarioRoundTrips)
{
    const ScenarioSpec spec = parseOk(kMinimal);
    EXPECT_EQ(spec.name, "minimal");
    EXPECT_EQ(spec.schemaVersion, 1);
    ASSERT_EQ(spec.populations.size(), 1u);
    EXPECT_EQ(spec.populations[0].name, "QZ");
    ASSERT_EQ(spec.populations[0].overrides.size(), 1u);
    EXPECT_EQ(spec.populations[0].overrides[0].field, "controller");
    EXPECT_TRUE(spec.axes.empty());
    EXPECT_FALSE(spec.report.enabled);
}

TEST(ScenarioSpecParse, FullScenarioRoundTrips)
{
    const ScenarioSpec spec = parseOk(R"json({
      "schema_version": 1,
      "name": "full",
      "description": "d",
      "defaults": {"events": 500, "seed": 7, "buffer": 12},
      "populations": [
        {"name": "A", "controller": "QZ",
         "pid": {"kp": 1e-5, "ki": 2e-6}},
        {"name": "B", "controller": "NA", "use_pid": false}
      ],
      "sweep": {
        "mode": "zip",
        "axes": [
          {"field": "environment", "values": ["crowded", "msp430"]},
          {"field": "cells", "values": [4, 8]}
        ]
      },
      "max_runs": 100,
      "output": {"summary": true, "rollup": true,
                 "csv": "-",
                 "trace": {"path": "t.jsonl", "level": "counters"}},
      "report": {
        "banner": "b",
        "table": ["A", "B"],
        "lines": [{
          "format": "A vs B: %.1fx (%.0f%%)",
          "values": [
            {"metric": "discard_ratio", "subject": "A",
             "baseline": "B"},
            {"metric": "hq_share_pct", "subject": "A"}
          ]
        }]
      }
    })json");
    EXPECT_EQ(spec.defaults.size(), 3u);
    EXPECT_EQ(spec.mode, SweepMode::Zip);
    ASSERT_EQ(spec.axes.size(), 2u);
    EXPECT_EQ(spec.axes[1].field, "cells");
    EXPECT_EQ(spec.maxRuns, 100u);
    EXPECT_TRUE(spec.output.summary);
    EXPECT_TRUE(spec.output.rollup);
    EXPECT_EQ(spec.output.csvPath, "-");
    ASSERT_TRUE(spec.output.trace.has_value());
    EXPECT_EQ(spec.output.trace->level, obs::ObsLevel::Counters);
    ASSERT_TRUE(spec.report.enabled);
    ASSERT_EQ(spec.report.lines.size(), 1u);
    EXPECT_EQ(spec.report.lines[0].terms.size(), 2u);
}

TEST(ScenarioSpecParse, SeedRangeExpands)
{
    const ScenarioSpec spec = parseOk(R"({
      "name": "seeds",
      "populations": [{"name": "QZ", "controller": "QZ"}],
      "sweep": {"axes": [
        {"field": "seed", "range": {"from": 10, "count": 5}}]}
    })");
    ASSERT_EQ(spec.axes.size(), 1u);
    ASSERT_EQ(spec.axes[0].values.size(), 5u);
    EXPECT_EQ(spec.axes[0].values.front().asUint64(), 10u);
    EXPECT_EQ(spec.axes[0].values.back().asUint64(), 14u);
}

TEST(ScenarioSpecParse, RejectsUnknownTopLevelKey)
{
    const auto paths = errorPaths(R"({
      "name": "x", "frobnicate": 1,
      "populations": [{"name": "QZ"}]
    })");
    EXPECT_TRUE(contains(paths, "frobnicate"));
}

TEST(ScenarioSpecParse, RejectsUnknownFieldWithPath)
{
    const auto paths = errorPaths(R"({
      "name": "x",
      "defaults": {"warp_factor": 9},
      "populations": [{"name": "QZ", "frobnicate": 1}]
    })");
    EXPECT_TRUE(contains(paths, "defaults.warp_factor"));
    EXPECT_TRUE(contains(paths, "populations[0].frobnicate"));
}

TEST(ScenarioSpecParse, BadEnumDiagnosticListsAllowedValues)
{
    const Expected<ScenarioSpec> result = parseScenarioText(R"({
      "name": "x",
      "populations": [{"name": "A", "controller": "WARP"}]
    })");
    ASSERT_FALSE(result.ok());
    ASSERT_EQ(result.errors.size(), 1u);
    EXPECT_EQ(result.errors[0].path, "populations[0].controller");
    // The message names the legal spellings.
    EXPECT_NE(result.errors[0].message.find("QZ-AvgSe2e"),
              std::string::npos);
    EXPECT_NE(result.errors[0].message.find("Ideal"),
              std::string::npos);
}

TEST(ScenarioSpecParse, OutOfRangeValuesNameTheirPath)
{
    const auto paths = errorPaths(R"({
      "name": "x",
      "populations": [
        {"name": "A", "controller": "QZ", "buffer": 0,
         "buffer_threshold": 1.5}],
      "sweep": {"axes": [{"field": "cells", "values": [4, 65]}]}
    })");
    EXPECT_TRUE(contains(paths, "populations[0].buffer"));
    EXPECT_TRUE(contains(paths, "populations[0].buffer_threshold"));
    EXPECT_TRUE(contains(paths, "sweep.axes[0].values[1]"));
}

TEST(ScenarioSpecParse, RejectsDuplicateAndEmptyPopulations)
{
    const auto paths = errorPaths(R"({
      "name": "x",
      "populations": [
        {"name": "A", "controller": "QZ"},
        {"name": "A", "controller": "NA"}]
    })");
    EXPECT_TRUE(contains(paths, "populations[1].name"));

    const auto empty = errorPaths(R"({"name": "x", "populations": []})");
    EXPECT_TRUE(contains(empty, "populations"));
}

TEST(ScenarioSpecParse, RejectsAxisShadowedByPopulationOverride)
{
    const auto paths = errorPaths(R"({
      "name": "x",
      "populations": [
        {"name": "A", "controller": "QZ", "environment": "crowded"}],
      "sweep": {"axes": [
        {"field": "environment", "values": ["crowded", "msp430"]}]}
    })");
    EXPECT_TRUE(contains(paths, "populations[0].environment"));

    // Two axes over one field are rejected on the second axis.
    const Expected<ScenarioSpec> twice = parseScenarioText(R"({
      "name": "x",
      "populations": [{"name": "A", "controller": "QZ"}],
      "sweep": {"axes": [
        {"field": "environment", "values": ["crowded"]},
        {"field": "environment", "values": ["msp430"]}]}
    })");
    ASSERT_FALSE(twice.ok());
    const auto swept = std::find_if(
        twice.errors.begin(), twice.errors.end(),
        [](const SpecError &error) {
            return error.path == "sweep.axes[1].field";
        });
    ASSERT_NE(swept, twice.errors.end());
    EXPECT_NE(swept->message.find("swept by more than one axis"),
              std::string::npos);
}

TEST(ScenarioSpecParse, RejectsZipLengthMismatch)
{
    const auto paths = errorPaths(R"({
      "name": "x",
      "populations": [{"name": "A", "controller": "QZ"}],
      "sweep": {"mode": "zip", "axes": [
        {"field": "environment", "values": ["crowded", "msp430"]},
        {"field": "cells", "values": [4]}]}
    })");
    EXPECT_TRUE(contains(paths, "sweep.axes"));
}

TEST(ScenarioSpecParse, EnforcesCrossProductRunLimit)
{
    const auto paths = errorPaths(R"({
      "name": "x",
      "max_runs": 10,
      "populations": [{"name": "A", "controller": "QZ"}],
      "sweep": {"axes": [
        {"field": "seed", "range": {"from": 1, "count": 4}},
        {"field": "cells", "values": [2, 4, 6]}]}
    })");
    EXPECT_TRUE(contains(paths, "sweep"));
}

TEST(ScenarioSpecParse, TraceFormatAcceptsBtraceRejectsUnknown)
{
    const ScenarioSpec spec = parseOk(R"({
      "name": "t",
      "populations": [{"name": "QZ", "controller": "QZ"}],
      "output": {"trace": {"path": "-", "format": "btrace"}}
    })");
    ASSERT_TRUE(spec.output.trace.has_value());
    EXPECT_EQ(spec.output.trace->format, "btrace");

    const std::vector<std::string> paths = errorPaths(R"({
      "name": "t",
      "populations": [{"name": "QZ", "controller": "QZ"}],
      "output": {"trace": {"path": "-", "format": "protobuf"}}
    })");
    EXPECT_TRUE(contains(paths, "output.trace.format"));
}

TEST(ScenarioSpecParse, RejectsUnknownSchemaVersion)
{
    const auto paths = errorPaths(R"({
      "schema_version": 2,
      "name": "x",
      "populations": [{"name": "A", "controller": "QZ"}]
    })");
    EXPECT_TRUE(contains(paths, "schema_version"));
}

TEST(ScenarioSpecParse, RejectsBadReportReferencesAndFormats)
{
    const auto paths = errorPaths(R"({
      "name": "x",
      "populations": [{"name": "A", "controller": "QZ"},
                      {"name": "B", "controller": "NA"}],
      "report": {
        "banner": "b",
        "table": ["A", "C"],
        "lines": [
          {"format": "only %s strings",
           "values": [{"metric": "hq_share_pct", "subject": "A"}]},
          {"format": "%.1f and %.1f",
           "values": [{"metric": "discard_ratio", "subject": "A",
                       "baseline": "B"}]},
          {"format": "%.1f",
           "values": [{"metric": "warp_speed", "subject": "A"}]},
          {"format": "%.1f",
           "values": [{"metric": "discard_ratio", "subject": "A"}]}
        ]
      }
    })");
    EXPECT_TRUE(contains(paths, "report.table[1]"));
    EXPECT_TRUE(contains(paths, "report.lines[0].format"));
    EXPECT_TRUE(contains(paths, "report.lines[1].format"));
    EXPECT_TRUE(
        contains(paths, "report.lines[2].values[0].metric"));
    EXPECT_TRUE(contains(paths, "report.lines[3].values[0]"));
}

TEST(ScenarioSpecParse, JsonSyntaxErrorsAreSpecErrors)
{
    const Expected<ScenarioSpec> result =
        parseScenarioText("{\"name\": oops}");
    ASSERT_FALSE(result.ok());
    ASSERT_EQ(result.errors.size(), 1u);
    EXPECT_NE(result.errors[0].message.find("JSON parse error"),
              std::string::npos);
    EXPECT_NE(result.errors[0].message.find("line 1"),
              std::string::npos);
}

TEST(ScenarioSpecParse, MissingFileIsAnError)
{
    const Expected<ScenarioSpec> result =
        loadScenarioFile("/nonexistent/scenario.json");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.errors[0].message.find("cannot open"),
              std::string::npos);
}

TEST(ScenarioCompile, AppliesDefaultsAxisThenPopulation)
{
    const ScenarioSpec spec = parseOk(R"({
      "name": "x",
      "defaults": {"events": 500, "buffer": 12},
      "populations": [
        {"name": "A", "controller": "NA"},
        {"name": "B", "controller": "QZ", "buffer": 3}],
      "sweep": {"axes": [
        {"field": "environment",
         "values": ["crowded", "less-crowded"]},
        {"field": "cells", "values": [4, 8]}]}
    })");
    const ScenarioPlan plan = compileScenario(spec);

    // Cross product, first axis outermost, populations inner.
    ASSERT_EQ(plan.cells.size(), 4u);
    ASSERT_EQ(plan.runs.size(), 8u);
    EXPECT_EQ(plan.cells[0].label, "environment: Crowded, cells: 4");
    EXPECT_EQ(plan.cells[1].label, "environment: Crowded, cells: 8");
    EXPECT_EQ(plan.cells[2].label,
              "environment: LessCrowded, cells: 4");

    const sim::ExperimentConfig &a0 = plan.runs[0].config;
    EXPECT_EQ(a0.eventCount, 500u);
    EXPECT_EQ(a0.sim.bufferCapacity, 12u);
    EXPECT_EQ(a0.harvesterCells, 4);
    EXPECT_EQ(a0.controller, sim::ControllerKind::NoAdapt);
    EXPECT_EQ(a0.environment, trace::EnvironmentPreset::Crowded);

    // Population override beats the default.
    const sim::ExperimentConfig &b0 = plan.runs[1].config;
    EXPECT_EQ(b0.sim.bufferCapacity, 3u);
    EXPECT_EQ(b0.controller, sim::ControllerKind::Quetzal);

    // Last cell: both axes advanced.
    const sim::ExperimentConfig &a3 = plan.runs[6].config;
    EXPECT_EQ(a3.environment, trace::EnvironmentPreset::LessCrowded);
    EXPECT_EQ(a3.harvesterCells, 8);
}

TEST(ScenarioCompile, ZipAdvancesAxesTogether)
{
    const ScenarioSpec spec = parseOk(R"({
      "name": "x",
      "populations": [{"name": "A", "controller": "QZ"}],
      "sweep": {"mode": "zip", "axes": [
        {"field": "environment", "values": ["crowded", "msp430"]},
        {"field": "cells", "values": [4, 8]}]}
    })");
    const ScenarioPlan plan = compileScenario(spec);
    ASSERT_EQ(plan.runs.size(), 2u);
    EXPECT_EQ(plan.runs[0].config.harvesterCells, 4);
    EXPECT_EQ(plan.runs[1].config.harvesterCells, 8);
    EXPECT_EQ(plan.runs[1].config.environment,
              trace::EnvironmentPreset::Msp430Short);
}

TEST(ScenarioCompile, PidGainsReachTheConfig)
{
    const ScenarioSpec spec = parseOk(R"({
      "name": "x",
      "populations": [{"name": "A", "controller": "QZ",
                       "pid": {"kp": 1e-5, "kd": 2.0}}]
    })");
    const ScenarioPlan plan = compileScenario(spec);
    const core::PidConfig &pid = plan.runs[0].config.pid;
    EXPECT_DOUBLE_EQ(pid.kp, 1e-5);
    EXPECT_DOUBLE_EQ(pid.kd, 2.0);
    EXPECT_DOUBLE_EQ(pid.ki, core::PidConfig{}.ki); // untouched
}

} // namespace
} // namespace scenario
} // namespace quetzal
