/**
 * @file
 * Scenario loader diagnostics, pinned. Each case is one invalid
 * scenario document and the complete, sorted list of (JSON path,
 * message) pairs the loader reports for it. Together the cases reach
 * every unknown-key and type-mismatch site of the schema, every
 * fleet.* range, each "faults" sub-block and the "pid" gains, range
 * axes, report terms and the trace level and format, plus the
 * cross-reference checks (population and report references, axis
 * shadowing, zip lengths, max_runs and the fleet-vs-sweep
 * exclusions). A change to any message or path fails the case that
 * names it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "scenario/spec.hpp"

namespace quetzal {
namespace scenario {
namespace {

using Diagnostic = std::pair<std::string, std::string>;

/** One invalid document and every diagnostic it must produce. */
struct DiagnosticCase
{
    const char *name;
    const char *document;
    std::vector<Diagnostic> expected; ///< in any order
};

/** Test listings name a case, not its bytes. */
void
PrintTo(const DiagnosticCase &c, std::ostream *out)
{
    *out << c.name;
}

/** The experiment-field list every "unknown experiment field"
 *  message carries. */
const std::string kKnownFields =
    "device, environment, controller, policy, events, seed, cells, "
    "buffer, capture_period_ms, task_window, arrival_window, "
    "buffer_threshold, power_threshold_fraction, use_pid, use_circuit, "
    "drain_s, jitter_sigma, checkpoint, checkpoint_interval_ms, "
    "power_trace_csv, pid, faults";

const std::string kTopKeys =
    "unknown key (allowed: schema_version, name, description, defaults, "
    "populations, sweep, max_runs, output, report, fleet)";

const std::vector<DiagnosticCase> kCases = {
    {"RootNotObject", R"([1, 2])",
     {{"$", "scenario must be a JSON object, got array"}}},

    {"JsonSyntaxError", R"({"name": oops})",
     {{"$", "JSON parse error: line 1, column 10: unexpected character 'o'"}}},

    {"TopLevelTypes", R"({
       "schema_version": "1", "name": 5, "description": [],
       "defaults": [], "populations": {}, "sweep": 3, "max_runs": -1,
       "output": "x", "report": true, "fleet": null, "frobnicate": 1})",
     {{"defaults", "expected object, got array"},
      {"description", "expected string, got array"},
      {"fleet", "expected object, got null"},
      {"frobnicate", kTopKeys},
      {"max_runs", "must be an unsigned integer"},
      {"name", "expected string, got number"},
      {"output", "expected object, got string"},
      {"populations", "at least one population is required"},
      {"populations", "expected array, got object"},
      {"report", "expected object, got bool"},
      {"schema_version", "must be a positive integer"},
      {"sweep", "expected object, got number"}}},

    {"MissingPopulations", R"({"name": "x"})",
     {{"populations", "at least one population is required"},
      {"populations", "scenario needs a \"populations\" array"}}},

    {"SchemaVersionAndMaxRuns", R"({
       "schema_version": 2, "max_runs": 0,
       "populations": [{"name": "A"}]})",
     {{"max_runs", "must be at least 1"},
      {"schema_version",
       "unsupported scenario schema_version 2 (this build supports 1)"}}},

    {"PopulationEntries", R"({
       "populations": [
         5,
         {"controller": "QZ"},
         {"name": 7},
         {"name": ""},
         {"name": "A", "frobnicate": 1, "buffer": 0, "controller": "WARP"},
         {"name": "A"}]})",
     {{"populations[0]", "expected object, got number"},
      {"populations[1].name", "population needs a \"name\""},
      {"populations[2].name", "expected string, got number"},
      {"populations[3].name", "population name must be a non-empty string"},
      {"populations[4].buffer", "must be an integer in [1, 1000000]"},
      {"populations[4].controller",
       "must be one of \"QZ\", \"QZ-FCFS\", \"QZ-LCFS\", \"QZ-AvgSe2e\", "
       "\"NA\", \"AD\", \"CN\", \"THR\", \"PZO\", \"PZI\", \"Ideal\""},
      {"populations[4].frobnicate",
       "unknown experiment field (known fields: " + kKnownFields + ")"},
      {"populations[5].name", "duplicate population name \"A\""}}},

    {"EveryFieldRejectsABadValue", R"({
       "defaults": {
         "device": "z80", "environment": "moon", "controller": 1,
         "policy": "nope", "events": 0, "seed": -1, "cells": 65,
         "buffer": 1.5, "capture_period_ms": 0, "task_window": 4097,
         "arrival_window": 0, "buffer_threshold": 1.5,
         "power_threshold_fraction": -0.1, "use_pid": 1,
         "use_circuit": "yes", "drain_s": -1, "jitter_sigma": 11,
         "checkpoint": "always", "checkpoint_interval_ms": 0,
         "power_trace_csv": "", "pid": 1, "faults": [],
         "warp_factor": 9},
       "populations": [{"name": "A"}]})",
     {{"defaults.arrival_window", "must be an integer in [1, 65536]"},
      {"defaults.buffer", "must be an integer in [1, 1000000]"},
      {"defaults.buffer_threshold", "must be a number in [0, 1]"},
      {"defaults.capture_period_ms", "must be an integer in [1, 10000000]"},
      {"defaults.cells", "must be an integer in [1, 64]"},
      {"defaults.checkpoint", "must be one of \"jit\", \"periodic\""},
      {"defaults.checkpoint_interval_ms",
       "must be an integer in [1, 10000000]"},
      {"defaults.controller",
       "must be one of \"QZ\", \"QZ-FCFS\", \"QZ-LCFS\", \"QZ-AvgSe2e\", "
       "\"NA\", \"AD\", \"CN\", \"THR\", \"PZO\", \"PZI\", \"Ideal\""},
      {"defaults.device", "must be one of \"apollo4\", \"msp430\""},
      {"defaults.drain_s", "must be a number in [0, 10000000]"},
      {"defaults.environment",
       "must be one of \"more-crowded\", \"crowded\", \"less-crowded\", "
       "\"msp430\""},
      {"defaults.events", "must be an integer in [1, 10000000]"},
      {"defaults.faults",
       "must be an object of fault sub-blocks, e.g. "
       "{\"measurement\": {\"bias_watts\": 0.002}}"},
      {"defaults.jitter_sigma", "must be a number in [0, 10]"},
      {"defaults.pid",
       "must be an object of PID gains, e.g. "
       "{\"kp\": 5e-6, \"ki\": 1e-6, \"kd\": 1.0}"},
      {"defaults.policy",
       "must be a registered policy name (\"sjf-ibo\", \"zygarde\", "
       "\"delgado-famaey\", \"greedy-fcfs\")"},
      {"defaults.power_threshold_fraction", "must be a number in [0, 1]"},
      {"defaults.power_trace_csv", "must be a non-empty file path string"},
      {"defaults.seed", "must be an unsigned 64-bit integer"},
      {"defaults.task_window", "must be an integer in [1, 4096]"},
      {"defaults.use_circuit", "must be a boolean"},
      {"defaults.use_pid", "must be a boolean"},
      {"defaults.warp_factor",
       "unknown experiment field (known fields: " + kKnownFields + ")"}}},

    {"PidGains", R"({
       "populations": [
         {"name": "A", "pid": {"kp": "x"}},
         {"name": "B", "pid": {"kq": 1}},
         {"name": "C", "pid": []},
         {"name": "D", "pid": {"kp": 1, "ki": 2, "kd": true}}]})",
     {{"populations[0].pid", "PID gain \"kp\" must be a number"},
      {"populations[1].pid",
       "unknown PID gain \"kq\" (allowed: kp, ki, kd)"},
      {"populations[2].pid",
       "must be an object of PID gains, e.g. "
       "{\"kp\": 5e-6, \"ki\": 1e-6, \"kd\": 1.0}"},
      {"populations[3].pid", "PID gain \"kd\" must be a number"}}},

    {"FaultsTopLevelKeys", R"({
       "populations": [{"name": "A"}],
       "sweep": {"axes": [{"field": "faults", "values": [
         {"seed": -1},
         {"seed": 1.5},
         {"detect_error_s": 0},
         {"detect_error_s": "x"},
         {"mitigate_streak": 0},
         {"mitigate_streak": 1001},
         {"warp": {}},
         "x",
         {"seed": 7, "measurement": {"bias_watts": 11}, "warp": 1}]}]}})",
     {{"sweep.axes[0].values[0]",
       "faults.seed must be an unsigned 64-bit integer"},
      {"sweep.axes[0].values[1]",
       "faults.seed must be an unsigned 64-bit integer"},
      {"sweep.axes[0].values[2]",
       "faults.detect_error_s must be a positive number"},
      {"sweep.axes[0].values[3]",
       "faults.detect_error_s must be a positive number"},
      {"sweep.axes[0].values[4]",
       "faults.mitigate_streak must be an integer in [1, 1000]"},
      {"sweep.axes[0].values[5]",
       "faults.mitigate_streak must be an integer in [1, 1000]"},
      {"sweep.axes[0].values[6]",
       "unknown faults key \"warp\" (allowed: seed, detect_error_s, "
       "mitigate_streak, measurement, adc, power_trace, arrivals, "
       "execution)"},
      {"sweep.axes[0].values[7]",
       "must be an object of fault sub-blocks, e.g. "
       "{\"measurement\": {\"bias_watts\": 0.002}}"},
      {"sweep.axes[0].values[8]",
       "faults.measurement.bias_watts must be a number in [-10, 10]"}}},

    {"FaultsSectionsNotObjects", R"({
       "populations": [{"name": "A"}],
       "sweep": {"axes": [{"field": "faults", "values": [
         {"measurement": 1},
         {"adc": []},
         {"power_trace": "x"},
         {"arrivals": true},
         {"execution": null}]}]}})",
     {{"sweep.axes[0].values[0]", "faults.measurement must be an object"},
      {"sweep.axes[0].values[1]", "faults.adc must be an object"},
      {"sweep.axes[0].values[2]", "faults.power_trace must be an object"},
      {"sweep.axes[0].values[3]", "faults.arrivals must be an object"},
      {"sweep.axes[0].values[4]", "faults.execution must be an object"}}},

    {"FaultsSectionsUnknownKeys", R"({
       "populations": [{"name": "A"}],
       "sweep": {"axes": [{"field": "faults", "values": [
         {"measurement": {"bias": 1}},
         {"adc": {"mask": 1}},
         {"power_trace": {"dropouts": 1}},
         {"arrivals": {"jitter": 1}},
         {"execution": {"overrun": 1}}]}]}})",
     {{"sweep.axes[0].values[0]",
       "faults.measurement: unknown key \"bias\" (allowed: bias_watts, "
       "noise_sigma)"},
      {"sweep.axes[0].values[1]",
       "faults.adc: unknown key \"mask\" (allowed: stuck_high_mask, "
       "stuck_low_mask, flip_mask, saturate_max)"},
      {"sweep.axes[0].values[2]",
       "faults.power_trace: unknown key \"dropouts\" (allowed: "
       "dropouts_per_hour, dropout_seconds, spikes_per_hour, "
       "spike_seconds, spike_factor)"},
      {"sweep.axes[0].values[3]",
       "faults.arrivals: unknown key \"jitter\" (allowed: "
       "bursts_per_hour, burst_seconds, capture_jitter_ms)"},
      {"sweep.axes[0].values[4]",
       "faults.execution: unknown key \"overrun\" (allowed: "
       "overrun_probability, overrun_factor)"}}},

    {"FaultsSectionRanges", R"({
       "populations": [{"name": "A"}],
       "sweep": {"axes": [{"field": "faults", "values": [
         {"measurement": {"bias_watts": -10.5}},
         {"measurement": {"noise_sigma": "x"}},
         {"adc": {"stuck_high_mask": 256}},
         {"adc": {"stuck_low_mask": 1.5}},
         {"adc": {"flip_mask": -1}},
         {"adc": {"saturate_max": "x"}},
         {"power_trace": {"dropouts_per_hour": 3601}},
         {"power_trace": {"dropout_seconds": -1}},
         {"power_trace": {"spikes_per_hour": true}},
         {"power_trace": {"spike_seconds": 4000}},
         {"power_trace": {"spike_factor": 101}},
         {"arrivals": {"bursts_per_hour": -0.5}},
         {"arrivals": {"burst_seconds": 3600.5}},
         {"arrivals": {"capture_jitter_ms": 1000001}},
         {"execution": {"overrun_probability": 1.5}},
         {"execution": {"overrun_factor": 0.5}}]}]}})",
     {{"sweep.axes[0].values[0]",
       "faults.measurement.bias_watts must be a number in [-10, 10]"},
      {"sweep.axes[0].values[10]",
       "faults.power_trace.spike_factor must be a number in [0, 100]"},
      {"sweep.axes[0].values[11]",
       "faults.arrivals.bursts_per_hour must be a number in [0, 3600]"},
      {"sweep.axes[0].values[12]",
       "faults.arrivals.burst_seconds must be a number in [0, 3600]"},
      {"sweep.axes[0].values[13]",
       "faults.arrivals.capture_jitter_ms must be an integer in "
       "[0, 1e+06]"},
      {"sweep.axes[0].values[14]",
       "faults.execution.overrun_probability must be a number in [0, 1]"},
      {"sweep.axes[0].values[15]",
       "faults.execution.overrun_factor must be a number in [1, 1000]"},
      {"sweep.axes[0].values[1]",
       "faults.measurement.noise_sigma must be a number in [0, 10]"},
      {"sweep.axes[0].values[2]",
       "faults.adc.stuck_high_mask must be an integer in [0, 255]"},
      {"sweep.axes[0].values[3]",
       "faults.adc.stuck_low_mask must be an integer in [0, 255]"},
      {"sweep.axes[0].values[4]",
       "faults.adc.flip_mask must be an integer in [0, 255]"},
      {"sweep.axes[0].values[5]",
       "faults.adc.saturate_max must be an integer in [0, 255]"},
      {"sweep.axes[0].values[6]",
       "faults.power_trace.dropouts_per_hour must be a number in "
       "[0, 3600]"},
      {"sweep.axes[0].values[7]",
       "faults.power_trace.dropout_seconds must be a number in [0, 3600]"},
      {"sweep.axes[0].values[8]",
       "faults.power_trace.spikes_per_hour must be a number in [0, 3600]"},
      {"sweep.axes[0].values[9]",
       "faults.power_trace.spike_seconds must be a number in [0, 3600]"}}},

    {"SweepTypes", R"({
       "populations": [{"name": "A"}],
       "sweep": {"mode": "diagonal", "axes": 5, "warp": 1}})",
     {{"sweep.axes", "expected array, got number"},
      {"sweep.mode", "must be \"cross\" or \"zip\""},
      {"sweep.warp", "unknown key (allowed: mode, axes)"}}},

    {"AxisEntries", R"({
       "populations": [{"name": "A"}],
       "sweep": {"mode": 3, "axes": [
         5,
         {"field": 3, "values": 4},
         {"values": [1]},
         {"field": "cells"},
         {"field": "buffer", "values": [1], "range": {"from": 1, "count": 2}},
         {"field": "warp_factor", "values": [1]},
         {"field": "events", "values": [], "frob": 1},
         {"field": "cells", "values": [0, 65, "x"]}]}})",
     {{"sweep.axes[0]", "expected object, got number"},
      {"sweep.axes[1].field", "expected string, got number"},
      {"sweep.axes[1].values", "expected array, got number"},
      {"sweep.axes[2].field", "axis needs a \"field\""},
      {"sweep.axes[3]", "axis needs \"values\" or \"range\""},
      {"sweep.axes[3].values", "axis needs at least one value"},
      {"sweep.axes[4]", "give either \"values\" or \"range\", not both"},
      {"sweep.axes[5].field",
       "unknown experiment field \"warp_factor\" (known fields: " +
           kKnownFields + ")"},
      {"sweep.axes[6].frob", "unknown key (allowed: field, values, range)"},
      {"sweep.axes[6].values", "axis needs at least one value"},
      {"sweep.axes[7].field",
       "field \"cells\" is swept by more than one axis"},
      {"sweep.axes[7].values[0]", "must be an integer in [1, 64]"},
      {"sweep.axes[7].values[1]", "must be an integer in [1, 64]"},
      {"sweep.axes[7].values[2]", "must be an integer in [1, 64]"},
      {"sweep.mode", "must be \"cross\" or \"zip\""}}},

    {"RangeAxes", R"({
       "populations": [{"name": "A"}],
       "sweep": {"axes": [
         {"field": "seed", "range": 5},
         {"field": "events", "range": {"from": 1}},
         {"field": "buffer", "range": {"from": -1, "count": 2}},
         {"field": "cells", "range": {"from": 60, "count": 7}},
         {"field": "task_window", "range": {"from": 1, "count": 0}},
         {"field": "arrival_window",
          "range": {"from": 1, "count": 1000001}},
         {"field": "capture_period_ms",
          "range": {"from": 1, "count": 2, "step": 3}},
         {"field": "checkpoint_interval_ms",
          "range": {"from": "1", "count": 2}}]}})",
     {{"sweep.axes[0].range",
       "must be {\"from\": N, \"count\": M} with 1 <= M <= 1000000"},
      {"sweep.axes[0].values", "axis needs at least one value"},
      {"sweep.axes[1].range",
       "must be {\"from\": N, \"count\": M} with 1 <= M <= 1000000"},
      {"sweep.axes[1].values", "axis needs at least one value"},
      {"sweep.axes[2].range",
       "must be {\"from\": N, \"count\": M} with 1 <= M <= 1000000"},
      {"sweep.axes[2].values", "axis needs at least one value"},
      {"sweep.axes[3].values[5]", "must be an integer in [1, 64]"},
      {"sweep.axes[3].values[6]", "must be an integer in [1, 64]"},
      {"sweep.axes[4].range",
       "must be {\"from\": N, \"count\": M} with 1 <= M <= 1000000"},
      {"sweep.axes[4].values", "axis needs at least one value"},
      {"sweep.axes[5].range",
       "must be {\"from\": N, \"count\": M} with 1 <= M <= 1000000"},
      {"sweep.axes[5].values", "axis needs at least one value"},
      {"sweep.axes[6].range",
       "must be {\"from\": N, \"count\": M} with 1 <= M <= 1000000"},
      {"sweep.axes[6].values", "axis needs at least one value"},
      {"sweep.axes[7].range",
       "must be {\"from\": N, \"count\": M} with 1 <= M <= 1000000"},
      {"sweep.axes[7].values", "axis needs at least one value"}}},

    {"ZipLengthMismatch", R"({
       "populations": [{"name": "A"}],
       "sweep": {"axes": [
         {"field": "environment", "values": ["crowded", "msp430"]},
         {"field": "cells", "values": [4]},
         {"field": "buffer", "values": [1, 2, 3]}],
         "mode": "zip"}})",
     {{"sweep.axes",
       "zip mode requires equal-length axes (axis \"environment\" has 2 "
       "values, \"cells\" has 1)"}}},

    {"CrossProductRunLimit", R"({
       "max_runs": 10,
       "populations": [{"name": "A"}, {"name": "B"}],
       "sweep": {"axes": [
         {"field": "seed", "range": {"from": 1, "count": 4}},
         {"field": "cells", "values": [2, 4]}]}})",
     {{"sweep",
       "scenario expands to more than max_runs (10) runs; raise max_runs "
       "or shrink the sweep"}}},

    {"RunLimitOverflow", R"({
       "max_runs": 2,
       "populations": [{"name": "A"}],
       "sweep": {"axes": [
         {"field": "seed", "range": {"from": 1, "count": 1000000}},
         {"field": "events", "range": {"from": 1, "count": 1000000}},
         {"field": "buffer", "range": {"from": 1, "count": 1000000}}]}})",
     {{"sweep",
       "scenario expands to more than max_runs (2) runs; raise max_runs "
       "or shrink the sweep"}}},

    {"AxisShadowedByPopulations", R"({
       "defaults": {"environment": "crowded"},
       "populations": [
         {"name": "A", "environment": "crowded", "cells": 4},
         {"name": "B", "environment": "msp430"}],
       "sweep": {"axes": [
         {"field": "environment", "values": ["crowded"]},
         {"field": "environment", "values": ["msp430"]},
         {"field": "cells", "values": [4]}]}})",
     {{"populations[0].cells",
       "field \"cells\" is a sweep axis; the population override would "
       "shadow every swept value"},
      {"populations[0].environment",
       "field \"environment\" is a sweep axis; the population override "
       "would shadow every swept value"},
      {"populations[0].environment",
       "field \"environment\" is a sweep axis; the population override "
       "would shadow every swept value"},
      {"populations[1].environment",
       "field \"environment\" is a sweep axis; the population override "
       "would shadow every swept value"},
      {"populations[1].environment",
       "field \"environment\" is a sweep axis; the population override "
       "would shadow every swept value"},
      {"sweep.axes[1].field",
       "field \"environment\" is swept by more than one axis"}}},

    {"OutputTypes", R"({
       "populations": [{"name": "A"}],
       "output": {"summary": 1, "csv": "", "trace": 5, "rollup": "yes",
                  "league": null, "frob": 1}})",
     {{"output.csv", "must be a non-empty file path (\"-\" = stdout)"},
      {"output.frob",
       "unknown key (allowed: summary, csv, trace, rollup, league)"},
      {"output.league", "expected bool, got null"},
      {"output.rollup", "expected bool, got string"},
      {"output.summary", "expected bool, got number"},
      {"output.trace", "expected object, got number"}}},

    {"TraceFields", R"({
       "populations": [{"name": "A"}],
       "output": {"csv": 5,
                  "trace": {"path": 5, "level": "verbose", "format": 7,
                            "frob": 1}}})",
     {{"output.csv", "must be a non-empty file path (\"-\" = stdout)"},
      {"output.trace.format", "expected string, got number"},
      {"output.trace.frob", "unknown key (allowed: path, level, format)"},
      {"output.trace.level",
       "must be one of \"off\", \"counters\", \"decisions\", \"full\""},
      {"output.trace.path", "expected string, got number"},
      {"output.trace.path",
       "trace output needs a file path (\"-\" = stdout)"}}},

    {"TraceLevelAndFormat", R"({
       "populations": [{"name": "A"}],
       "output": {"trace": {"level": 3, "format": "protobuf"}}})",
     {{"output.trace.format", "must be \"jsonl\", \"chrome\" or \"btrace\""},
      {"output.trace.level",
       "must be one of \"off\", \"counters\", \"decisions\", \"full\""},
      {"output.trace.path",
       "trace output needs a file path (\"-\" = stdout)"}}},

    {"ReportTypes", R"({
       "populations": [{"name": "A"}],
       "report": {"banner": 5, "table": "A", "lines": {}, "frob": 1}})",
     {{"report.banner", "expected string, got number"},
      {"report.banner", "report needs a non-empty banner"},
      {"report.frob", "unknown key (allowed: banner, table, lines)"},
      {"report.lines", "expected array, got object"},
      {"report.table", "expected array, got string"},
      {"report.table", "report table needs at least one population row"}}},

    {"ReportEntries", R"({
       "populations": [{"name": "A"}, {"name": "B"}],
       "report": {"banner": "", "table": [5, "C", "A"],
         "lines": [
           3,
           {"format": 5, "values": 5, "frob": 1},
           {"format": "%.1f %.1f", "values": [
             5,
             {"metric": 5, "subject": "A"},
             {"metric": "hq_share_pct", "subject": "A", "weight": "x"},
             {"metric": "hq_share_pct", "subject": "A", "weight": 2}]}]}})",
     {{"report.banner", "report needs a non-empty banner"},
      {"report.lines[0]", "expected object, got number"},
      {"report.lines[1].format", "expected string, got number"},
      {"report.lines[1].frob", "unknown key (allowed: format, values)"},
      {"report.lines[1].values", "expected array, got number"},
      {"report.lines[2].format", "format has 2 conversions but 3 values"},
      {"report.lines[2].values[0]", "expected object, got number"},
      {"report.lines[2].values[1].metric", "expected string, got number"},
      {"report.lines[2].values[2].weight",
       "unknown key (allowed: metric, subject, baseline)"},
      {"report.lines[2].values[3].weight",
       "unknown key (allowed: metric, subject, baseline)"},
      {"report.table[0]", "expected string, got number"},
      {"report.table[1]", "unknown population \"C\""}}},

    {"ReportTerms", R"({
       "populations": [{"name": "A"}, {"name": "B"}],
       "report": {"banner": "b", "table": ["A", "B"],
         "lines": [
           {"format": "only %s strings", "values": []},
           {"format": "%.1f and %.1f",
            "values": [{"metric": "ibo_ratio", "subject": "A",
                        "baseline": "B"}]},
           {"format": "100%", "values": []},
           {"format": "%123456789.1f", "values": []},
           {"format": "%.1f",
            "values": [{"metric": "warp_speed", "subject": "Z"}]},
           {"format": "%.1f",
            "values": [{"metric": "discard_ratio", "subject": "A"}]},
           {"format": "%.1f",
            "values": [{"metric": "hq_share_pct", "subject": "A",
                        "baseline": "B"}]},
           {"format": "%.1f %.1f",
            "values": [{"metric": "tx_share_pct", "subject": "Z",
                        "baseline": "Y"},
                       {"subject": "A"}]},
           {"format": "%.1f", "values": [{"metric": "hq_share_pct"}]}]}})",
     {{"report.lines[0].format",
       "only %% and %...f conversions are allowed"},
      {"report.lines[1].format", "format has 2 conversions but 1 values"},
      {"report.lines[2].format", "stray '%' at end of format string"},
      {"report.lines[3].format", "conversion specifier too long"},
      {"report.lines[4].values[0].metric",
       "unknown metric \"warp_speed\" (allowed: discard_ratio, ibo_ratio, "
       "tx_share_pct, hq_share_pct)"},
      {"report.lines[5].values[0]",
       "metric \"discard_ratio\" needs a baseline population"},
      {"report.lines[6].values[0].baseline",
       "metric \"hq_share_pct\" takes no baseline"},
      {"report.lines[7].values[0].baseline", "unknown population \"Y\""},
      {"report.lines[7].values[0].subject", "unknown population \"Z\""},
      {"report.lines[7].values[1].metric",
       "unknown metric \"\" (allowed: discard_ratio, ibo_ratio, "
       "tx_share_pct, hq_share_pct)"},
      {"report.lines[8].values[0].subject", "unknown population \"\""}}},

    // A report term names an unknown key as such whatever its value
    // holds; a known key with the wrong type is a type mismatch.
    {"ReportTermKeys", R"({
       "populations": [{"name": "A"}],
       "report": {"banner": "b", "table": ["A"],
         "lines": [{"format": "%.1f %.1f %.1f %.1f %.1f", "values": [
           {"metric": "hq_share_pct", "subject": "A", "weight": true},
           {"metric": "hq_share_pct", "subject": "A", "weight": {"x": 1}},
           {"metric": "hq_share_pct", "subject": "A", "weight": null},
           {"metric": "hq_share_pct", "subject": "A", "weight": [2]},
           {"metric": true, "subject": "A"}]}]}})",
     {{"report.lines[0].values[0].weight",
       "unknown key (allowed: metric, subject, baseline)"},
      {"report.lines[0].values[1].weight",
       "unknown key (allowed: metric, subject, baseline)"},
      {"report.lines[0].values[2].weight",
       "unknown key (allowed: metric, subject, baseline)"},
      {"report.lines[0].values[3].weight",
       "unknown key (allowed: metric, subject, baseline)"},
      {"report.lines[0].values[4].metric", "expected string, got bool"}}},

    {"FleetTypes", R"({
       "populations": [{"name": "A"}],
       "fleet": {"shards": -1, "slab_s": "x", "horizon_s": 1.5,
                 "rollup_s": [], "solar_sample_s": "x",
                 "checkpoint_slabs": -2, "cohorts": {}, "frob": 1}})",
     {{"fleet.checkpoint_slabs", "must be an unsigned integer"},
      {"fleet.cohorts", "expected array, got object"},
      {"fleet.cohorts", "fleet needs at least one cohort"},
      {"fleet.frob",
       "unknown key (allowed: shards, slab_s, horizon_s, rollup_s, "
       "solar_sample_s, checkpoint_slabs, cohorts)"},
      {"fleet.horizon_s", "must be an unsigned integer"},
      {"fleet.rollup_s", "must be an unsigned integer"},
      {"fleet.shards", "must be an unsigned integer"},
      {"fleet.slab_s", "must be an unsigned integer"},
      {"fleet.solar_sample_s", "must be a number"}}},

    {"FleetRangesLow", R"({
       "populations": [{"name": "A"}],
       "fleet": {"shards": 0, "slab_s": 0, "horizon_s": 0, "rollup_s": 0,
                 "solar_sample_s": 0.5, "checkpoint_slabs": 0,
                 "cohorts": [{"population": "A", "devices": 1}]}})",
     {{"fleet.checkpoint_slabs", "must be an integer in [1, 100000]"},
      {"fleet.rollup_s", "must be a positive multiple of slab_s"},
      {"fleet.shards", "must be an integer in [1, 65536]"},
      {"fleet.slab_s", "must be an integer in [1, 86400]"},
      {"fleet.solar_sample_s", "must be a number in [1, 86400]"}}},

    {"FleetRangesHigh", R"({
       "populations": [{"name": "A"}],
       "fleet": {"shards": 65537, "slab_s": 86401, "horizon_s": 31557601,
                 "rollup_s": 86401, "solar_sample_s": 86400.5,
                 "checkpoint_slabs": 100001,
                 "cohorts": [{"population": "A", "devices": 1}]}})",
     {{"fleet.checkpoint_slabs", "must be an integer in [1, 100000]"},
      {"fleet.horizon_s", "must be an integer in [slab_s, 31557600]"},
      {"fleet.shards", "must be an integer in [1, 65536]"},
      {"fleet.slab_s", "must be an integer in [1, 86400]"},
      {"fleet.solar_sample_s", "must be a number in [1, 86400]"}}},

    {"FleetHorizonAndRollupAgainstSlab", R"({
       "populations": [{"name": "A"}],
       "fleet": {"slab_s": 600, "horizon_s": 300, "rollup_s": 900,
                 "cohorts": [{"population": "A", "devices": 1}]}})",
     {{"fleet.horizon_s", "must be an integer in [slab_s, 31557600]"},
      {"fleet.rollup_s", "must be a positive multiple of slab_s"}}},

    {"FleetCohorts", R"({
       "populations": [{"name": "A"}],
       "fleet": {"cohorts": [
         5,
         {"frob": 1},
         {"population": 5, "name": 5, "devices": -1, "task_ms": "x",
          "task_mw": "x"},
         {"population": "Z", "devices": 0, "task_ms": 0, "task_mw": 0},
         {"population": "A", "devices": 100000001, "task_ms": 10000001,
          "task_mw": 10000.5},
         {"population": "A", "devices": 1},
         {"population": "A", "name": "", "devices": 1}]}})",
     {{"fleet.cohorts[0]", "expected object, got number"},
      {"fleet.cohorts[1].devices", "must be an integer in [1, 100000000]"},
      {"fleet.cohorts[1].frob",
       "unknown key (allowed: population, name, devices, task_ms, "
       "task_mw)"},
      {"fleet.cohorts[1].population",
       "cohort needs a \"population\" reference"},
      {"fleet.cohorts[2].devices", "must be an unsigned integer"},
      {"fleet.cohorts[2].name", "expected string, got number"},
      {"fleet.cohorts[2].population", "expected string, got number"},
      {"fleet.cohorts[2].task_ms", "must be an unsigned integer"},
      {"fleet.cohorts[2].task_mw", "must be a number"},
      {"fleet.cohorts[3].devices", "must be an integer in [1, 100000000]"},
      {"fleet.cohorts[3].population", "unknown population \"Z\""},
      {"fleet.cohorts[3].task_ms", "must be an integer in [1, 10000000]"},
      {"fleet.cohorts[3].task_mw", "must be a number in (0, 10000]"},
      {"fleet.cohorts[4].devices", "must be an integer in [1, 100000000]"},
      {"fleet.cohorts[4].task_ms", "must be an integer in [1, 10000000]"},
      {"fleet.cohorts[4].task_mw", "must be a number in (0, 10000]"},
      {"fleet.cohorts[5].name", "duplicate cohort name \"A\""},
      {"fleet.cohorts[6].name", "duplicate cohort name \"A\""}}},

    {"FleetEmptyCohorts", R"({
       "populations": [{"name": "A"}],
       "fleet": {"cohorts": []}})",
     {{"fleet.cohorts", "fleet needs at least one cohort"}}},

    {"FleetExcludesRunMatrixOutputs", R"({
       "populations": [{"name": "A"}],
       "sweep": {"axes": [{"field": "cells", "values": [4]},
                          {"field": "buffer", "values": [4]}]},
       "report": {"banner": "b", "table": ["A"]},
       "output": {"csv": "-", "league": true},
       "fleet": {"cohorts": [{"population": "A", "devices": 1}]}})",
     {{"output.csv", "per-run CSV is not produced by the fleet engine"},
      {"output.league",
       "league tables rank run-matrix populations and are not produced "
       "by the fleet engine"},
      {"report",
       "figure reports compare run-matrix populations and are not "
       "produced by the fleet engine"},
      {"sweep.axes[0]",
       "sweep axes cannot be combined with a \"fleet\" block (the fleet "
       "engine runs cohorts, not a run matrix)"}}},
};

class ScenarioDiagnostics : public testing::TestWithParam<DiagnosticCase>
{
};

TEST_P(ScenarioDiagnostics, ReportsExactlyThePinnedPathsAndMessages)
{
    const DiagnosticCase &c = GetParam();
    const Expected<ScenarioSpec> result = parseScenarioText(c.document);
    EXPECT_FALSE(result.value.has_value());

    std::vector<Diagnostic> actual;
    for (const SpecError &error : result.errors)
        actual.emplace_back(error.path, error.message);
    std::sort(actual.begin(), actual.end());

    std::vector<Diagnostic> expected = c.expected;
    std::sort(expected.begin(), expected.end());

    std::string listing;
    for (const Diagnostic &d : actual)
        listing += "\n  " + d.first + ": " + d.second;
    EXPECT_EQ(actual, expected) << "actual diagnostics:" << listing;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ScenarioDiagnostics, testing::ValuesIn(kCases),
    [](const testing::TestParamInfo<DiagnosticCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace scenario
} // namespace quetzal
