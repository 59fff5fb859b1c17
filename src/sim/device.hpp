/**
 * @file
 * Intermittently-powered device model.
 *
 * Implements the execution semantics of the paper's simulator
 * (section 6.3): an energy store charged from a harvested-power
 * trace; tasks run by draining task power until they finish or the
 * store depletes; depletion triggers a just-in-time checkpoint
 * [8, 9, 47, 61, 64], an off period that lasts until the store
 * recharges to the turn-on threshold, a restore, and resumption.
 * The observable consequence is exactly Eq. (1): a task's end-to-end
 * time approaches max(t_exe, E_exe / P_in), plus checkpoint
 * overheads.
 *
 * Time advances on the 1 ms tick grid, but identical ticks are
 * batched: within a (power-trace segment x device phase) span the
 * state evolves linearly, so the device computes the span length in
 * O(1) instead of looping per tick. Device::advance queries the
 * power trace once per segment, not once per span. A Running span
 * cut only by the store running dry commits its power failure in the
 * same step (the fold). Under the just-in-time policy, whole
 * save -> recharge -> restore -> run -> fail cycles that fit inside
 * one segment run in a single loop iteration (the cycle kernel).
 * All three make the same EnergyStorage calls in the same order as
 * one span per phase transition would, so every output is unchanged;
 * tests/sim/test_device_span_differential.cpp holds that
 * one-span-per-transition loop and compares the two state by state.
 */

#ifndef QUETZAL_SIM_DEVICE_HPP
#define QUETZAL_SIM_DEVICE_HPP

#include <cstdint>

#include "app/device_profiles.hpp"
#include "energy/energy_storage.hpp"
#include "energy/power_trace.hpp"
#include "util/types.hpp"

namespace quetzal::util::wire {
class Archive;
}

namespace quetzal {
namespace sim {

/** What the device is doing at an instant. */
enum class DevicePhase {
    Idle,           ///< no task loaded; trickle harvesting
    Running,        ///< executing the loaded task
    CheckpointSave, ///< persisting state before a power failure
    Recharging,     ///< off, waiting for the turn-on threshold
    Restoring,      ///< restoring state after recharge
};

/** Cumulative execution statistics. */
struct DeviceStats
{
    std::uint64_t powerFailures = 0; ///< depletion events
    std::uint64_t checkpointSaves = 0; ///< save operations performed
    Tick rechargeTicks = 0;          ///< time spent off, recharging
    Tick activeTicks = 0;            ///< time actually executing tasks
    Tick rolledBackTicks = 0;        ///< re-executed work (Periodic)

    /** The wire layout: five varints in declaration order. */
    void walk(util::wire::Archive &ar);
};

/**
 * The device state machine.
 */
class Device
{
  public:
    /**
     * @param profile device energy/checkpoint parameters
     * @param watts harvested electrical power over time (must
     *        outlive the device)
     */
    Device(const app::DeviceProfile &profile,
           const energy::PowerTrace &watts);

    /** Current phase. */
    DevicePhase phase() const { return currentPhase; }

    /** Stored energy in joules. */
    Joules energy() const { return storage.energy(); }

    /** True when a task is loaded and not yet complete. */
    bool taskActive() const { return remainingTaskTicks > 0; }

    /**
     * Load a task. Only legal when no task is active.
     * @param power the task's execution power P_exe
     * @param exeTicks the task's latency t_exe
     */
    void startTask(Watts power, Tick exeTicks);

    /**
     * Advance through simulated time until `limit`, the loaded task
     * completes, or (when idle) forever-harvest reaches `limit`.
     * @return the tick actually reached (== limit unless the task
     *         completed earlier)
     */
    Tick advance(Tick now, Tick limit);

    /**
     * Instantaneous energy draw (capture/compression costs charged
     * at capture instants). Clamps at an empty store: the remainder
     * simply lengthens the next recharge.
     */
    void drawInstantaneous(Joules amount);

    /**
     * Everything mutable about the device. A simulator checkpoint
     * carries all of it, so a resumed run reports the totals the
     * uninterrupted run would have. A fleet shard persists millions
     * of devices in struct-of-arrays form between time slabs and
     * keeps only the energy, phase, timers and trace cursor: it
     * rehydrates one scratch Device per cohort with the cohort's
     * task power and zero rejected harvest and stats, so both read
     * back as per-slab deltas.
     */
    struct State
    {
        Joules energy = 0.0;
        Joules rejectedHarvest = 0.0; ///< cumulative, see EnergyStorage
        DevicePhase phase = DevicePhase::Idle;
        Watts taskPower = 0.0; ///< execution power of the loaded task
        Tick remainingTaskTicks = 0;
        Tick remainingPhaseTicks = 0;
        Tick progressSinceSave = 0;
        bool periodicSaveInProgress = false;
        std::size_t cursorIndex = 0; ///< PowerTrace::Cursor position
        DeviceStats stats;

        /** The wire layout, in declaration order (the phase as one
         *  byte; load rejects a value that names no phase). */
        void walk(util::wire::Archive &ar);
    };

    /** Snapshot everything mutable (see State). */
    State exportState() const;

    /** Rehydrate from a snapshot taken against the same profile and
     *  power trace. */
    void importState(const State &state);

    /** Cumulative statistics. */
    const DeviceStats &stats() const { return deviceStats; }

    /** The storage element (tests / reporting). */
    const energy::EnergyStorage &store() const { return storage; }

    /**
     * Iterations advance() has run on this object: one per
     * planStep/commitStep span plus one per whole cycle of the cycle
     * kernel. A cost measure for benches (bench/micro_device), not
     * part of State: never persisted, untouched by importState.
     */
    std::uint64_t spans() const { return spanCount; }

  private:
    const app::DeviceProfile profile;
    const energy::PowerTrace &watts;
    /** Monotone cursor over `watts` — device time never rewinds, so
     *  both per-segment queries are amortized O(1) instead of
     *  O(log n). */
    energy::PowerTrace::Cursor powerCursor;
    energy::EnergyStorage storage;

    DevicePhase currentPhase = DevicePhase::Idle;
    Watts taskPower = 0.0;
    Tick remainingTaskTicks = 0;
    Tick remainingPhaseTicks = 0; ///< for save/restore phases
    Tick progressSinceSave = 0;   ///< Periodic: uncheckpointed work
    bool periodicSaveInProgress = false;
    DeviceStats deviceStats;
    std::uint64_t spanCount = 0;

    /**
     * One constant-power span: how far the device can evolve from
     * `now` without an internal state change, and the harvested
     * power over it.
     */
    struct StepPlan
    {
        Tick run = 0;    ///< ticks the device evolves linearly
        Watts pin = 0.0; ///< harvested power over the span
        /** A Running span cut only by the store running dry, before
         *  the segment end, task completion or a periodic checkpoint. */
        bool starved = false;
    };

    /**
     * Closed-form plan of the next span starting at `now` inside the
     * power-trace segment that ends at `segmentEnd` (already bounded
     * by the advance limit) and harvests `pin`: bounded further by
     * task completion, a storage-threshold crossing and the phase
     * timers. A plan with run == 0 marks an immediate phase
     * transition (e.g. depleted-while-running -> checkpoint save).
     * Pure.
     */
    StepPlan planStep(Tick now, Tick segmentEnd, Watts pin);

    /**
     * Apply the plan planStep just produced: advance the energy
     * state over plan.run ticks and perform the phase transition
     * that ends the span.
     */
    void commitStep(const StepPlan &plan);

    /**
     * The cycle kernel: from a just-in-time CheckpointSave at `now`,
     * run save -> recharge -> restore -> run-until-starved -> fail
     * for as long as each phase ends strictly before `segmentEnd`.
     * Returns the tick reached (== now when the save does not fit)
     * and leaves the device in the phase that did not fit, for the
     * generic step to finish.
     */
    Tick runCycles(Tick now, Tick segmentEnd, Watts pin);

    /** Whole ticks the stored energy funds at net power `net` < 0. */
    Tick fundableTicks(Watts net) const;

    /** Handle depletion while Running, per the checkpoint policy. */
    void onPowerFailure();

    /** Apply a constant net power over a span, clamped at the rails. */
    void applyNet(Watts net, Tick span);
};

} // namespace sim
} // namespace quetzal

#endif // QUETZAL_SIM_DEVICE_HPP
