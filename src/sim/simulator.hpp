/**
 * @file
 * The experiment simulator (paper section 6.3).
 *
 * Co-simulation of the environment (harvested-power trace +
 * sensing-event trace) and the device (capture pipeline, input
 * buffer, controller, intermittent task execution) on a 1 ms tick
 * grid. The run loop visits only system instants — captures, task
 * completions, the horizon — and the device covers the span between
 * two of them in closed form (sim/device.hpp). Captures occur
 * strictly periodically regardless of device state — the paper's
 * premise — and are charged to the energy store at the capture
 * instant; "different" frames are compressed and inserted into the
 * input buffer (inserts into a full buffer are IBO drops). Whenever
 * the device is idle and the buffer is non-empty, the controller is
 * invoked (its modeled overhead charged first, as in section 6.3),
 * the selected job's tasks execute through the intermittent device
 * model, and completion feeds the trackers, estimator and PID loop.
 */

#ifndef QUETZAL_SIM_SIMULATOR_HPP
#define QUETZAL_SIM_SIMULATOR_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "app/application.hpp"
#include "app/device_profiles.hpp"
#include "core/runtime.hpp"
#include "obs/trace_sink.hpp"
#include "energy/power_trace.hpp"
#include "queueing/input_buffer.hpp"
#include "sim/device.hpp"
#include "sim/metrics.hpp"
#include "trace/event_trace.hpp"
#include "util/random.hpp"

namespace quetzal::util::wire {
class Archive;
}

namespace quetzal {
namespace fault {
class FaultInjector;
}
namespace sim {

/** Run-level knobs. */
struct SimulationConfig
{
    Tick capturePeriod = 1000;      ///< paper: 1 FPS
    std::size_t bufferCapacity = 10; ///< paper Table 1: 10 images
    /** Model the paper's infinite-memory Ideal baseline. */
    bool infiniteBuffer = false;
    /** Extra simulated time after the last event, to drain. */
    Tick drainTicks = 600 * kTicksPerSecond;
    /** Keep simulating (without captures) until the buffer empties. */
    bool drainToEmpty = false;
    /** Controller invocation cost, charged per scheduling round. */
    double schedulerOverheadSeconds = 0.0;
    Joules schedulerOverheadEnergy = 0.0;
    /** Power drawn while the scheduler computes. */
    Watts schedulerPower = 5e-3;
    /** Seed for classification-outcome draws. */
    std::uint64_t outcomeSeed = 99;
    /**
     * Multiplicative execution-time jitter (log-normal sigma) per
     * task execution. 0 models the paper's consistent profiled
     * costs; >0 models variable execution costs (the paper's
     * future-work regime), which the PID loop compensates for.
     */
    double executionJitterSigma = 0.0;
    /**
     * Optional telemetry recorder (must outlive the run). The
     * simulator drives the recorder's run clock and emits lifecycle
     * events; pair with Controller::setObserver() on the same
     * recorder so decision events land in the same stream.
     */
    obs::Recorder *observer = nullptr;
    /**
     * Optional fault-injection runtime (must outlive the run, and
     * must already be prepare()d for the run's horizon). nullptr —
     * the default — is the clean path: no fault code runs at all.
     */
    fault::FaultInjector *faults = nullptr;

    /**
     * @name Checkpoint / resume (DESIGN.md section 16)
     * Checkpoints are taken at quiescent capture boundaries: the
     * first boundary (no job in flight, no overhead phase pending)
     * once `checkpointEveryCaptures` more captures have been
     * processed. Saving serializes the entire run state — simulator
     * loop, device, buffer, metrics, RNG streams, TaskSystem
     * trackers, controller (PID/estimator/adaptation) and fault
     * runtime — and hands the blob to `checkpointSink`. Saving draws
     * no randomness and records no events, so a checkpointing run is
     * byte-identical to a clean one.
     */
    /// @{
    /** Captures between checkpoints (0 disables checkpointing). */
    std::uint64_t checkpointEveryCaptures = 0;
    /** Return from the run right after the first checkpoint saves. */
    bool checkpointStop = false;
    /** Receives each serialized checkpoint (must outlive the run). */
    std::function<void(std::string &&state, Tick now)> checkpointSink;
    /**
     * Resume from a state blob produced by checkpointSink. The run
     * must be built from the identical configuration (same traces,
     * device profile, controller, seeds); the resumed run then
     * replays the exact observable timeline the uninterrupted run
     * would have produced from that boundary on. Must outlive the
     * run.
     */
    const std::string *resumeState = nullptr;
    /// @}

    /**
     * @name Telemetry self-cost (measurement-overhead accounting)
     * Model the cost of the observability layer itself: every event
     * the attached recorder stores is charged at these rates on the
     * next scheduling round (time folded into the scheduler-overhead
     * carry, energy drawn from the store). The defaults are 0 — the
     * recorder is free, and the simulation is byte-identical to a
     * build without this accounting.
     */
    /// @{
    double telemetrySecondsPerEvent = 0.0;
    Joules telemetryEnergyPerEvent = 0.0;
    /// @}
};

/**
 * One experiment run. Construct, call run() once.
 */
class Simulator
{
  public:
    /**
     * All references must outlive the simulator; the TaskSystem must
     * already have the application registered on it.
     */
    Simulator(const SimulationConfig &config,
              const app::DeviceProfile &deviceProfile,
              const app::ApplicationModel &application,
              core::TaskSystem &system, core::Controller &controller,
              const energy::PowerTrace &watts,
              const trace::EventTrace &events);

    /** Execute the full run and return its metrics. */
    Metrics run();

    /**
     * True when run() returned because checkpointStop fired: the
     * metrics are a partial prefix and no end-of-run events were
     * emitted (so a stop-segment trace concatenates cleanly with the
     * resumed segment's).
     */
    bool stoppedAtCheckpoint() const { return stoppedAtCheckpoint_; }

  private:
    /** In-flight job bookkeeping. */
    struct ActiveJob
    {
        core::JobSelection selection;
        queueing::InputRecord input;
        std::size_t taskPos = 0;
        Tick jobStart = 0;
        Tick taskStart = 0;
        std::vector<bool> executed;
        /** IBO drop total when the job began (for outcome events). */
        std::uint64_t dropsAtStart = 0;
    };

    /**
     * The run loop: from one system instant (capture, task
     * completion, horizon) to the next, letting Device::advance cover
     * each span in closed form. Returns the final simulated tick.
     */
    Tick runLoop(Tick horizon, Tick hardCap);

    /**
     * @name Checkpoint plumbing (sim/checkpoint.cpp)
     * The run loop calls checkpointDue() at the top of every system
     * instant and saveCheckpoint() when it fires; a resuming
     * run calls restoreCheckpoint() once before its first instant.
     * Both go through walkCheckpoint(), the blob's one field list.
     * On load it dies naming the first bad section, and applies the
     * simulator's own state only after every byte parsed (each
     * component applies its nested blob once that blob parsed). The
     * loop-local clocks travel by reference because they are the only
     * run state not owned by a member.
     */
    /// @{
    bool checkpointDue(bool capturing, Tick now, Tick nextCapture) const;
    void saveCheckpoint(Tick now, Tick nominalCapture, Tick nextCapture);
    void restoreCheckpoint(Tick &now, Tick &nominalCapture,
                           Tick &nextCapture);
    void walkCheckpoint(util::wire::Archive &ar, Tick &now,
                        Tick &nominalCapture, Tick &nextCapture);
    /// @}

    /** Charge pending telemetry self-cost (see SimulationConfig). */
    void chargeTelemetry();

    void processCapture(Tick now);
    void tryBeginJob(Tick now);
    void startNextTask(Tick now);
    void onTaskFinished(Tick now);
    void finishJob(Tick now);
    void accountLeftovers();

    /** IBO drops observed so far (both interestingness classes). */
    std::uint64_t totalDrops() const
    {
        return metrics.iboDropsInteresting + metrics.iboDropsUninteresting;
    }

    /** Emit power-failure / recharge deltas since the last call. */
    void recordDeviceObs();

    SimulationConfig cfg;
    const app::ApplicationModel &appModel;
    core::TaskSystem &system;
    core::Controller &controller;
    const energy::PowerTrace &watts;
    const trace::EventTrace &events;

    Device device;
    queueing::InputBuffer buffer;
    Metrics metrics;
    util::Rng outcomeRng;
    /**
     * Monotone cursors over the run's traces: tryBeginJob reads the
     * harvested power and processCapture the sensing event at each
     * system instant in time order, so the amortized-O(1) cursors
     * replace a binary search per query with answers that are
     * identical by contract.
     */
    energy::PowerTrace::Cursor schedPowerCursor;
    trace::EventTrace::Cursor captureCursor;

    std::optional<ActiveJob> activeJob;
    /**
     * Recycled backing storage for ActiveJob::executed, so beginning
     * a job reuses the previous job's allocation instead of paying
     * one heap round-trip per completion.
     */
    std::vector<bool> executedScratch;
    bool inOverheadPhase = false;
    double overheadCarrySeconds = 0.0;
    std::uint64_t nextInputId = 1;
    util::Rng jitterRng;
    /** Device-stats snapshot recordDeviceObs() diffs against. */
    DeviceStats obsDevice;

    /**
     * Captures that must have been processed before the next
     * checkpoint fires (derived from checkpointEveryCaptures; never
     * serialized — a resumed run recomputes it from the restored
     * capture count).
     */
    std::uint64_t nextCheckpointAtCaptures = 0;
    bool stoppedAtCheckpoint_ = false;

    /**
     * Recorder events already charged as telemetry self-cost, in the
     * attached recorder's counting. Signed: a resumed run starts a
     * fresh recorder at 0 with the previous segment's uncharged tail
     * carried over as a negative offset.
     */
    std::int64_t telemetryChargedEvents = 0;
};

} // namespace sim
} // namespace quetzal

#endif // QUETZAL_SIM_SIMULATOR_HPP
