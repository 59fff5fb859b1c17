/**
 * @file
 * ScenarioSpec: the single validated front door for describing a
 * fleet/sweep experiment (DESIGN.md section 10).
 *
 * A scenario describes, declaratively:
 *
 *  - *defaults*: experiment-field overrides applied to every run;
 *  - *populations*: named device/controller configurations compared
 *    against each other (the rows of a figure's table);
 *  - *sweep axes*: fields swept across values, combined by cross
 *    product (default) or zipped; the cells of a figure's panels;
 *  - *outputs*: metrics table, CSV, per-run JSONL/Chrome traces,
 *    aggregate fleet rollup, and a printf-style figure report.
 *
 * The JSON loader (parseScenario*) is the only producer of a
 * ScenarioSpec. It reads and checks each JSON object in one pass,
 * then checks the references between parts (population names, axis
 * shadowing, the run limit, the fleet's exclusions). Loading is
 * expected-style: every problem is collected as a SpecError carrying
 * the JSON field path ("populations[2].controller"), never a crash
 * or a silent default.
 *
 * Experiment fields are named by a single table (fields::*) shared
 * by validation, compilation, axis labeling and quetzal-sim's
 * experiment flags; see fields::describeFields() for the
 * authoritative list.
 */

#ifndef QUETZAL_SCENARIO_SPEC_HPP
#define QUETZAL_SCENARIO_SPEC_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "scenario/json.hpp"
#include "sim/experiment.hpp"

namespace quetzal {
namespace scenario {

/** One validation problem, anchored to a JSON field path. */
struct SpecError
{
    std::string path;     ///< e.g. "populations[1].buffer"
    std::string message;  ///< e.g. "must be a positive integer"

    /** "populations[1].buffer: must be a positive integer" */
    std::string describe() const { return path + ": " + message; }
};

/**
 * Expected-style result: either a value or a non-empty error list
 * (never both, never neither).
 */
template <typename T>
struct Expected
{
    std::optional<T> value;
    std::vector<SpecError> errors;

    bool ok() const { return value.has_value() && errors.empty(); }
};

/** @name Experiment-field table
 *  The canonical JSON-key -> ExperimentConfig mapping. One table
 *  drives override validation, sweep-axis validation, plan
 *  compilation and cell labeling.
 */
/// @{
namespace fields {

/** True when `key` names a known experiment field. */
bool knownField(const std::string &key);

/**
 * Validate a value for the field. Returns true when it fits;
 * otherwise fills `why` with the expectation (allowed values /
 * range), suitable for a SpecError message.
 */
bool validateField(const std::string &key, const json::Value &value,
                   std::string &why);

/**
 * Apply a validated value onto the config. Precondition:
 * validateField() returned true for (key, value).
 */
void applyField(const std::string &key, const json::Value &value,
                sim::ExperimentConfig &config);

/** Display label for an axis cell ("MoreCrowded", "QZ", "12"). */
std::string fieldLabel(const std::string &key,
                       const json::Value &value);

/** Comma-separated list of all known field keys (diagnostics). */
std::string describeFields();

} // namespace fields
/// @}

/** One field override ("buffer": 12) with its source path. */
struct Override
{
    std::string field;
    json::Value value;
    std::string path;  ///< JSON path for diagnostics
};

/** A named configuration compared against the other populations. */
struct PopulationSpec
{
    std::string name;
    std::vector<Override> overrides;
    std::string path;
};

/** How multiple sweep axes combine into cells. */
enum class SweepMode {
    Cross,  ///< cross product; first axis outermost
    Zip,    ///< axes advance together (all must have equal length)
};

/** One swept experiment field and its values. */
struct SweepAxis
{
    std::string field;
    std::vector<json::Value> values;
    std::string path;
};

/** Per-run event-trace output request. */
struct TraceOutputSpec
{
    std::string path;  ///< "-" = stdout
    obs::ObsLevel level = obs::ObsLevel::Full;
    std::string format = "jsonl";  ///< "jsonl" | "chrome" | "btrace"
};

/** One value interpolated into a report line's format string. */
struct ReportTerm
{
    /** "discard_ratio" | "ibo_ratio" | "tx_share_pct" |
     *  "hq_share_pct" (the last takes no baseline). */
    std::string metric;
    std::string subject;   ///< population name
    std::string baseline;  ///< population name; empty for hq_share_pct
    std::string path;
};

/** One printf-style comparison line printed per sweep cell. */
struct ReportLine
{
    /** Only %% and %...f conversions; one conversion per term. */
    std::string format;
    std::vector<ReportTerm> terms;
};

/** One row of the report table. */
struct ReportRow
{
    std::string population; ///< population name
    std::string path;       ///< "report.table[i]", i the array index
};

/** Figure-style report: banner, per-cell table + comparison lines. */
struct ReportSpec
{
    bool enabled = false;
    std::string banner;
    /** Table rows, in table-row order. */
    std::vector<ReportRow> rows;
    std::vector<ReportLine> lines;
};

/** Which outputs the scenario produces (any combination). */
struct OutputSpec
{
    /** Plain per-run metrics table (the default when nothing else is
     *  requested). */
    bool summary = false;
    std::string csvPath;  ///< per-run CSV rows; "-" = stdout
    std::optional<TraceOutputSpec> trace;
    /** Aggregate fleet rollup: combined MetricsRegistry summary +
     *  per-population ensemble statistics. */
    bool rollup = false;
    /** Tournament league table: per-cell population standings (served
     *  / IBO drops / deadline misses / energy wasted) plus a fleet
     *  rollup table summed over every cell. */
    bool league = false;
};

/**
 * One fleet cohort: a device population instantiated `devices` times
 * by the sharded fleet engine. The referenced population's overrides
 * supply the device/policy/harvest parameters the fleet honors
 * (policy, device, environment, seed, cells, buffer,
 * capture_period_ms); the cohort adds the population size and the
 * job shape.
 */
struct FleetCohortSpec
{
    std::string population; ///< referenced populations[].name
    /** Display name in rollups; defaults to the population name. */
    std::string name;
    std::uint64_t devices = 0;
    /** Full-quality job execution time (level L runs in
     *  max(1 ms, task_ms >> L)). */
    std::uint64_t taskMs = 3000;
    /** Job execution power, milliwatts. */
    double taskMw = 12.0;
    std::string path;
};

/**
 * The "fleet" block: run the scenario on the sharded fleet engine
 * (src/fleet) instead of the per-run experiment matrix. Mutually
 * exclusive with sweep axes — the fleet has its own slab engine, and
 * silently ignoring them would lie about what ran.
 */
struct FleetSpec
{
    std::uint64_t shards = 1;
    std::uint64_t slabSeconds = 600;
    std::uint64_t horizonSeconds = 86400;
    std::uint64_t rollupSeconds = 3600;
    double solarSampleSeconds = 300.0;
    /** Barrier snapshot cadence in slabs when --fleet-checkpoint is
     *  set (the final barrier always snapshots). */
    std::uint64_t checkpointSlabs = 1;
    std::vector<FleetCohortSpec> cohorts;
};

/** A complete, declarative experiment description. */
struct ScenarioSpec
{
    /** Scenario file format version; major must match. */
    static constexpr int kSchemaMajor = 1;

    int schemaVersion = kSchemaMajor;
    std::string name;
    std::string description;
    std::vector<Override> defaults;
    std::vector<PopulationSpec> populations;
    SweepMode mode = SweepMode::Cross;
    std::vector<SweepAxis> axes;
    /** Guard against accidental combinatorial explosion. */
    std::uint64_t maxRuns = 10000;
    OutputSpec output;
    ReportSpec report;
    /** Present = run on the fleet engine instead of the run matrix. */
    std::optional<FleetSpec> fleet;
};

/** Parse + validate a scenario from a parsed JSON document. */
Expected<ScenarioSpec> parseScenario(const json::Value &root);

/** Parse + validate a scenario from JSON text. */
Expected<ScenarioSpec> parseScenarioText(const std::string &text);

/** Read, parse + validate a scenario file. */
Expected<ScenarioSpec> loadScenarioFile(const std::string &path);

} // namespace scenario
} // namespace quetzal

#endif // QUETZAL_SCENARIO_SPEC_HPP
