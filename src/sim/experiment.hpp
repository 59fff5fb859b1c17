/**
 * @file
 * Turn-key experiment runner: builds the environment (seeded solar +
 * event traces), the device, the application, and one of the paper's
 * controller configurations, runs the simulator and returns metrics.
 * Every benchmark binary in bench/ is a thin sweep over
 * ExperimentConfig.
 */

#ifndef QUETZAL_SIM_EXPERIMENT_HPP
#define QUETZAL_SIM_EXPERIMENT_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "app/device_profiles.hpp"
#include "core/pid.hpp"
#include "core/system.hpp"
#include "energy/power_trace.hpp"
#include "fault/fault_spec.hpp"
#include "obs/trace_sink.hpp"
#include "policy/registry.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "trace/event_generator.hpp"
#include "util/types.hpp"

namespace quetzal {
namespace sim {

/** Every system configuration the paper evaluates (one table row
 *  each, see policy/registry.hpp). */
using ControllerKind = policy::ControllerKind;

/** Short display name ("QZ", "NA", ...) matching the paper's bars. */
std::string controllerKindName(ControllerKind kind);

/**
 * Full experiment description (paper Table 1 defaults).
 *
 * Composes the subsystem configs instead of mirroring their fields:
 * run-level knobs (capture period, buffer capacity, drain window,
 * execution jitter) live in `sim`, tracker windows in `system`.
 * runExperiment() derives the remaining fields of those sub-configs
 * from the experiment description (see their doc comments); values
 * set on a derived field are ignored.
 */
struct ExperimentConfig
{
    app::DeviceKind device = app::DeviceKind::Apollo4;
    trace::EnvironmentPreset environment =
        trace::EnvironmentPreset::Crowded;
    std::size_t eventCount = 1000;  ///< 1000 sim / 100 "hardware"
    std::uint64_t seed = 42;
    int harvesterCells = 6;
    ControllerKind controller = ControllerKind::Quetzal;
    /**
     * Registry policy name ("sjf-ibo", "zygarde", ...). When
     * non-empty it overrides `controller`: the run uses the policy's
     * row of the controller table (with usePid, useCircuit and pid
     * below) and is labeled by the policy name. "sjf-ibo" is
     * byte-identical to ControllerKind::Quetzal.
     */
    std::string policyName;
    double bufferThreshold = 0.5;        ///< for BufferThreshold
    double powerThresholdFraction = 0.35; ///< for ZGO / ZGI
    bool usePid = true;    ///< section 4.3 loop (Quetzal variants)
    bool useCircuit = true; ///< Alg. 3 codes vs exact float power
    /** PID gains/limits for Quetzal variants when usePid is set. */
    core::PidConfig pid;
    /**
     * Run-level simulation knobs. Respected fields: capturePeriod,
     * bufferCapacity, drainTicks,
     * executionJitterSigma, debugLog, the checkpoint/resume block
     * (checkpointEveryCaptures, checkpointStop, checkpointSink,
     * resumeState) and the telemetry self-cost rates
     * (telemetrySecondsPerEvent, telemetryEnergyPerEvent).
     * The rest (infiniteBuffer, drainToEmpty, outcomeSeed, scheduler
     * overheads/power, observer) are derived per run by
     * runExperiment() and ignored here.
     */
    SimulationConfig sim;
    /**
     * Tracker windows + measurement circuit. Respected fields:
     * taskWindow, arrivalWindow, circuit. captureHz is derived from
     * sim.capturePeriod and ignored here.
     */
    core::SystemConfig system;
    /**
     * Optional harvested-power CSV ("time_seconds,watts") replayed
     * instead of the synthetic solar model — the paper's methodology
     * of replaying a measured trace (section 6.2). The final value
     * extends past the file's end; harvesterCells is ignored for
     * replayed traces (the file is already electrical power).
     */
    std::string powerTraceCsv;
    /** Intermittent checkpointing policy (DESIGN.md section 7). */
    app::CheckpointPolicy checkpointPolicy =
        app::CheckpointPolicy::JustInTime;
    /** Checkpoint interval for the Periodic policy. */
    Tick checkpointIntervalTicks = 1000;
    /**
     * Pre-built environment, shared read-only across runs. When set,
     * runExperiment() uses these instead of regenerating the traces
     * from the parameters above — the caller is responsible for the
     * traces matching the trace parameters (environment, eventCount,
     * seed, harvesterCells, drainTicks, powerTraceCsv). Sweeps that
     * vary only the controller or system knobs build each trace once
     * (see sim::TraceCache / sim::ParallelRunner) instead of per run.
     */
    std::shared_ptr<const trace::EventTrace> sharedEvents;
    /** Pre-built harvested-power trace (see sharedEvents). */
    std::shared_ptr<const energy::PowerTrace> sharedPowerTrace;
    /**
     * Telemetry verbosity (DESIGN.md section 9). Off — the default —
     * skips every recording branch; Counters..Full stream typed
     * events into obsSink.
     */
    obs::ObsLevel obsLevel = obs::ObsLevel::Off;
    /**
     * Where events go when obsLevel != Off. The sink must outlive
     * runExperiment() and is used from whichever thread runs the
     * experiment — ensemble callers give every run its own sink (see
     * obs::VectorSink) and serialize after the joins, keeping the hot
     * path lock-free.
     */
    obs::TraceSink *obsSink = nullptr;
    /**
     * Fault model (DESIGN.md section 12). The default is inert():
     * runExperiment() then skips the fault machinery entirely, so a
     * clean config's outputs are bit-for-bit those of a build without
     * the fault subsystem. A non-inert spec is instantiated per run
     * as a fault::FaultInjector seeded from (faults.seed, seed):
     * power-trace windows are spliced before the run, ADC masks are
     * copied into system.circuit.adc, and the simulator's seams are
     * perturbed during it.
     */
    fault::FaultSpec faults;
};

/** Build everything per the config, run, and return the metrics. */
Metrics runExperiment(const ExperimentConfig &config);

/**
 * Build the seeded sensing-event trace the config describes (the
 * same trace runExperiment() would build when sharedEvents is unset).
 */
trace::EventTrace buildEventTrace(const ExperimentConfig &config);

/**
 * Build the harvested-power trace the config describes, for the
 * given event trace (synthetic solar or CSV replay).
 */
energy::PowerTrace buildPowerTrace(const ExperimentConfig &config,
                                   const trace::EventTrace &events);

/** The config's controller display name with parameters applied. */
std::string experimentLabel(const ExperimentConfig &config);

} // namespace sim
} // namespace quetzal

#endif // QUETZAL_SIM_EXPERIMENT_HPP
