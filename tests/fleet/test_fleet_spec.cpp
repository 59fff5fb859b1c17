/**
 * @file
 * The scenario front door of the fleet engine: "fleet" block parsing
 * and validation (every problem lands as a SpecError with its JSON
 * field path — never a silent ignore), and buildFleetConfig's
 * lowering of populations + overrides onto fleet cohorts.
 */

#include <gtest/gtest.h>

#include <string>

#include "scenario/engine.hpp"
#include "scenario/spec.hpp"

namespace {

using namespace quetzal;
using scenario::parseScenarioText;

bool
hasError(const scenario::Expected<scenario::ScenarioSpec> &result,
         const std::string &pathPart, const std::string &messagePart)
{
    for (const scenario::SpecError &error : result.errors) {
        if (error.path.find(pathPart) != std::string::npos &&
            error.message.find(messagePart) != std::string::npos)
            return true;
    }
    return false;
}

std::string
describeErrors(const scenario::Expected<scenario::ScenarioSpec> &result)
{
    std::string all;
    for (const scenario::SpecError &error : result.errors)
        all += error.describe() + "\n";
    return all;
}

const char *const kValidFleet = R"({
  "schema_version": 1,
  "name": "mini-fleet",
  "defaults": {"seed": 9, "cells": 2, "buffer": 5,
               "capture_period_ms": 30000},
  "populations": [
    {"name": "a", "policy": "zygarde"},
    {"name": "b", "policy": "greedy-fcfs", "device": "msp430"}
  ],
  "fleet": {
    "shards": 8,
    "slab_s": 300,
    "horizon_s": 3600,
    "rollup_s": 900,
    "solar_sample_s": 60,
    "cohorts": [
      {"population": "a", "devices": 40, "task_ms": 45000,
       "task_mw": 6.5},
      {"population": "b", "name": "b-lite", "devices": 10}
    ]
  }
})";

TEST(FleetSpec, ValidBlockParsesEveryField)
{
    const auto result = parseScenarioText(kValidFleet);
    ASSERT_TRUE(result.ok()) << describeErrors(result);

    const scenario::ScenarioSpec &spec = *result.value;
    ASSERT_TRUE(spec.fleet.has_value());
    EXPECT_EQ(spec.fleet->shards, 8u);
    EXPECT_EQ(spec.fleet->slabSeconds, 300u);
    EXPECT_EQ(spec.fleet->horizonSeconds, 3600u);
    EXPECT_EQ(spec.fleet->rollupSeconds, 900u);
    EXPECT_DOUBLE_EQ(spec.fleet->solarSampleSeconds, 60.0);
    ASSERT_EQ(spec.fleet->cohorts.size(), 2u);
    EXPECT_EQ(spec.fleet->cohorts[0].population, "a");
    EXPECT_EQ(spec.fleet->cohorts[0].devices, 40u);
    EXPECT_EQ(spec.fleet->cohorts[0].taskMs, 45000u);
    EXPECT_DOUBLE_EQ(spec.fleet->cohorts[0].taskMw, 6.5);
    EXPECT_EQ(spec.fleet->cohorts[1].name, "b-lite");
}

TEST(FleetSpec, BuildFleetConfigLowersDefaultsAndOverrides)
{
    const auto result = parseScenarioText(kValidFleet);
    ASSERT_TRUE(result.ok()) << describeErrors(result);

    const fleet::FleetConfig config =
        scenario::buildFleetConfig(*result.value);
    EXPECT_EQ(config.shards, 8u);
    EXPECT_EQ(config.slabTicks, Tick{300} * kTicksPerSecond);
    EXPECT_EQ(config.horizonTicks, Tick{3600} * kTicksPerSecond);
    EXPECT_EQ(config.rollupTicks, Tick{900} * kTicksPerSecond);
    EXPECT_DOUBLE_EQ(config.solarSampleSeconds, 60.0);

    ASSERT_EQ(config.cohorts.size(), 2u);
    const fleet::CohortConfig &a = config.cohorts[0];
    EXPECT_EQ(a.name, "a"); // display name defaults to the population
    EXPECT_EQ(a.policy, "zygarde");
    EXPECT_EQ(a.devices, 40u);
    EXPECT_EQ(a.seed, 9u);
    EXPECT_EQ(a.harvesterCells, 2);
    EXPECT_EQ(a.bufferCapacity, 5u);
    EXPECT_EQ(a.capturePeriod, Tick{30000}); // ticks are milliseconds
    EXPECT_EQ(a.taskTicks, Tick{45000});
    EXPECT_DOUBLE_EQ(a.taskPower, 6.5e-3);

    const fleet::CohortConfig &b = config.cohorts[1];
    EXPECT_EQ(b.name, "b-lite");
    EXPECT_EQ(b.policy, "greedy-fcfs");
    EXPECT_EQ(b.device, app::DeviceKind::Msp430);
    // Cohort keys the spec omitted keep their fleet-scale defaults.
    EXPECT_EQ(b.taskTicks, Tick{3} * kTicksPerSecond);
    EXPECT_DOUBLE_EQ(b.taskPower, 12e-3);
}

TEST(FleetSpec, FleetScaleDefaultsSurviveWhenSpecIsSilent)
{
    // No capture_period_ms anywhere: the cohort must keep the fleet
    // default (60 s), not inherit ExperimentConfig's 1 s default.
    const auto result = parseScenarioText(R"({
      "name": "quiet",
      "populations": [{"name": "a"}],
      "fleet": {"cohorts": [{"population": "a", "devices": 3}]}
    })");
    ASSERT_TRUE(result.ok()) << describeErrors(result);

    const fleet::FleetConfig config =
        scenario::buildFleetConfig(*result.value);
    ASSERT_EQ(config.cohorts.size(), 1u);
    EXPECT_EQ(config.cohorts[0].capturePeriod,
              Tick{60} * kTicksPerSecond);
    EXPECT_EQ(config.cohorts[0].bufferCapacity, 8u);
    EXPECT_EQ(config.cohorts[0].seed, 42u);
}

TEST(FleetSpec, SweepAxesCannotCombineWithFleet)
{
    const auto result = parseScenarioText(R"({
      "name": "bad",
      "populations": [{"name": "a"}],
      "sweep": {"axes": [{"field": "buffer", "values": [4, 8]}]},
      "fleet": {"cohorts": [{"population": "a", "devices": 1}]}
    })");
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(hasError(result, "sweep", "fleet"))
        << describeErrors(result);
}

TEST(FleetSpec, EngineOverridesAreRejectedWithTheirJsonPath)
{
    // There is one time-advance loop, so "engine" is not an
    // experiment field: an override is an unknown-field diagnostic
    // anchored to its own JSON path, with or without a "fleet" block.
    const std::string fleetBlock =
        R"(, "fleet": {"cohorts": [{"population": "a", "devices": 1}]})";
    for (const std::string &tail : {std::string(), fleetBlock}) {
        SCOPED_TRACE(tail.empty() ? "run matrix" : "fleet");
        const auto inDefaults = parseScenarioText(
            R"({"name": "bad", "defaults": {"engine": "tick"},)"
            R"( "populations": [{"name": "a"}])" + tail + "}");
        EXPECT_FALSE(inDefaults.ok());
        EXPECT_TRUE(hasError(inDefaults, "defaults.engine",
                             "unknown experiment field"))
            << describeErrors(inDefaults);

        const auto inPopulation = parseScenarioText(
            R"({"name": "bad", "populations": [{"name": "a",)"
            R"( "engine": "event"}])" + tail + "}");
        EXPECT_FALSE(inPopulation.ok());
        EXPECT_TRUE(hasError(inPopulation, "populations[0].engine",
                             "unknown experiment field"))
            << describeErrors(inPopulation);
    }
}

TEST(FleetSpec, RunMatrixOutputsAreRejectedWithFleet)
{
    const auto result = parseScenarioText(R"({
      "name": "bad",
      "populations": [{"name": "a"}],
      "output": {"csv": "runs.csv", "league": true},
      "report": {"banner": "x", "table": ["a"]},
      "fleet": {"cohorts": [{"population": "a", "devices": 1}]}
    })");
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(hasError(result, "output.csv", "fleet"))
        << describeErrors(result);
    EXPECT_TRUE(hasError(result, "output.league", "fleet"))
        << describeErrors(result);
    EXPECT_TRUE(hasError(result, "report", "fleet"))
        << describeErrors(result);
}

TEST(FleetSpec, CohortProblemsCarryTheirJsonPaths)
{
    const auto result = parseScenarioText(R"({
      "name": "bad",
      "populations": [{"name": "a"}],
      "fleet": {
        "shards": 0,
        "rollup_s": 700,
        "cohorts": [
          {"population": "ghost", "devices": 1},
          {"population": "a", "devices": 0, "task_mw": 0}
        ]
      }
    })");
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(hasError(result, "fleet.shards", ""))
        << describeErrors(result);
    EXPECT_TRUE(hasError(result, "fleet.rollup_s", "multiple"))
        << describeErrors(result);
    EXPECT_TRUE(hasError(result, "fleet.cohorts[0].population",
                         "ghost"))
        << describeErrors(result);
    EXPECT_TRUE(hasError(result, "fleet.cohorts[1].devices", ""))
        << describeErrors(result);
    EXPECT_TRUE(hasError(result, "fleet.cohorts[1].task_mw", ""))
        << describeErrors(result);
}

TEST(FleetSpec, FleetModeRequiresAFleetBlock)
{
    // Validate-only: the fleet scenario is accepted in both modes,
    // and a matrix-only scenario is rejected when a fleet block is
    // required (quetzal-sim --fleet).
    scenario::EngineOptions options;
    options.validateOnly = true;
    const std::string fleetDay =
        std::string(QUETZAL_SCENARIO_DIR) + "/fleet_day.json";
    const std::string fig09 =
        std::string(QUETZAL_SCENARIO_DIR) + "/fig09.json";

    EXPECT_EQ(scenario::runScenarioFile(fleetDay, options), 0);
    EXPECT_EQ(scenario::runScenarioFile(fig09, options), 0);

    options.requireFleet = true;
    EXPECT_EQ(scenario::runScenarioFile(fleetDay, options), 0);
    EXPECT_EQ(scenario::runScenarioFile(fig09, options), 1);
}

} // namespace
