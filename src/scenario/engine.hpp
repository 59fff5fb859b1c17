/**
 * @file
 * Scenario execution engine: run a compiled ScenarioPlan on the
 * parallel experiment engine and produce the outputs the spec
 * requests — figure-style report, per-run metrics table, CSV rows,
 * JSONL/Chrome event traces, and the aggregate fleet rollup.
 *
 * Every output is written serially, in run order, from the in-order
 * results of sim::ParallelRunner::runBatch(), so all of them are
 * bit-identical for every jobs value. The report writer uses the
 * same sim/metrics table printers as the bench drivers, which is
 * what lets scenarios/fig09.json and scenarios/fig12.json reproduce
 * the historical figure output byte-for-byte.
 */

#ifndef QUETZAL_SCENARIO_ENGINE_HPP
#define QUETZAL_SCENARIO_ENGINE_HPP

#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "scenario/compile.hpp"
#include "sim/metrics.hpp"

namespace quetzal {
namespace scenario {

/** Engine knobs (CLI flags). */
struct EngineOptions
{
    /** Worker threads; 0 = sim::defaultJobs() (QUETZAL_JOBS). */
    unsigned jobs = 0;
    /** Override every run's eventCount; 0 = scenario values. */
    std::size_t eventCountOverride = 0;
    /** Compile + validate only; don't run (quetzal_sim --validate). */
    bool validateOnly = false;
    /** Reject a file without a "fleet" block (quetzal_sim --fleet). */
    bool requireFleet = false;

    /** @name Fleet barrier checkpointing (DESIGN.md section 17) */
    /// @{
    /** Append a QZCK barrier snapshot stream here ("" = no
     *  checkpointing). */
    std::string fleetCheckpointPath;
    /** Snapshot cadence in coordinator barriers (0 = the scenario's
     *  fleet.checkpoint_slabs, itself defaulting to 1). */
    unsigned fleetCheckpointEverySlabs = 0;
    /** Halt cleanly after the first barrier at or past this many
     *  simulated seconds (0 = run to the horizon). */
    long long fleetStopAfterSeconds = 0;
    /** Resume from the last complete record of this QZCK stream
     *  ("" = start at tick 0). */
    std::string fleetResumePath;
    /** Write checkpoint/restore episode events (JSONL) here ("" =
     *  discard them); never mixed into the run trace. */
    std::string fleetEpisodeTracePath;
    /// @}
};

/**
 * Execute a compiled plan and write the spec's outputs (report /
 * summary to stdout, CSV and traces to their configured paths).
 * Returns the per-run metrics in run order.
 */
std::vector<sim::Metrics> runPlan(const ScenarioPlan &plan,
                                  const EngineOptions &options = {});

/**
 * Load, validate, compile and run a scenario file — on the fleet
 * engine when the file has a "fleet" block, otherwise as a run
 * matrix. Validation problems (including a missing "fleet" block
 * under options.requireFleet) are printed to stderr, one line per
 * error with the JSON field path, and the function returns 1 without
 * running anything — invalid input never crashes and never runs a
 * partial fleet. Returns 0 on success (also in --validate mode,
 * which prints a one-line plan summary instead of running).
 */
int runScenarioFile(const std::string &path,
                    const EngineOptions &options = {});

/**
 * Lower a validated scenario's "fleet" block onto the fleet engine's
 * config. Each cohort starts from the fleet-scale CohortConfig
 * defaults; the referenced population's overrides (after scenario
 * defaults) are applied through the same fields:: table as the run
 * matrix, for the subset the fleet honors: policy, device,
 * environment, seed, cells, buffer, capture_period_ms.
 * Precondition: the loader produced spec and spec.fleet is present.
 */
fleet::FleetConfig buildFleetConfig(const ScenarioSpec &spec);

} // namespace scenario
} // namespace quetzal

#endif // QUETZAL_SCENARIO_ENGINE_HPP
