#include "sim/device.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/wire.hpp"

namespace quetzal {
namespace sim {

namespace {

/** ceil(ticks) as a tick count, for ticks > 0, without the libm
 *  call: the same value std::ceil gives over the whole Tick range. */
Tick
ceilTicks(double ticks)
{
    const auto whole = static_cast<Tick>(ticks);
    return static_cast<double>(whole) < ticks ? whole + 1 : whole;
}

} // namespace

Device::Device(const app::DeviceProfile &profile_,
               const energy::PowerTrace &watts_)
    : profile(profile_), watts(watts_), powerCursor(watts_.cursor()),
      storage(profile_.storage)
{
}

Device::State
Device::exportState() const
{
    State state;
    state.energy = storage.energy();
    state.rejectedHarvest = storage.rejectedHarvest();
    state.phase = currentPhase;
    state.taskPower = taskPower;
    state.remainingTaskTicks = remainingTaskTicks;
    state.remainingPhaseTicks = remainingPhaseTicks;
    state.progressSinceSave = progressSinceSave;
    state.periodicSaveInProgress = periodicSaveInProgress;
    state.cursorIndex = powerCursor.position();
    state.stats = deviceStats;
    return state;
}

void
Device::importState(const State &state)
{
    storage.restoreExact(state.energy, state.rejectedHarvest);
    currentPhase = state.phase;
    taskPower = state.taskPower;
    remainingTaskTicks = state.remainingTaskTicks;
    remainingPhaseTicks = state.remainingPhaseTicks;
    progressSinceSave = state.progressSinceSave;
    periodicSaveInProgress = state.periodicSaveInProgress;
    powerCursor.restore(state.cursorIndex);
    deviceStats = state.stats;
}

void
DeviceStats::walk(util::wire::Archive &ar)
{
    ar.varint(powerFailures);
    ar.varint(checkpointSaves);
    ar.varint(rechargeTicks);
    ar.varint(activeTicks);
    ar.varint(rolledBackTicks);
}

void
Device::State::walk(util::wire::Archive &ar)
{
    ar.real(energy);
    ar.real(rejectedHarvest);
    ar.enumeration(phase,
                   static_cast<std::size_t>(DevicePhase::Restoring) + 1);
    ar.real(taskPower);
    ar.varint(remainingTaskTicks);
    ar.varint(remainingPhaseTicks);
    ar.varint(progressSinceSave);
    ar.flag(periodicSaveInProgress);
    ar.varint(cursorIndex);
    stats.walk(ar);
}

void
Device::startTask(Watts power, Tick exeTicks)
{
    if (taskActive())
        util::panic("Device::startTask while a task is active");
    if (power <= 0.0 || exeTicks <= 0)
        util::panic("Device::startTask with non-positive cost");
    taskPower = power;
    remainingTaskTicks = exeTicks;
    // A depleted device must recharge before it can begin.
    currentPhase = storage.depleted() ? DevicePhase::Recharging
                                      : DevicePhase::Running;
}

void
Device::onPowerFailure()
{
    if (profile.checkpoint.policy == app::CheckpointPolicy::JustInTime) {
        // Save exactly now (the voltage-warning margin funds it),
        // then recharge with no work lost.
        currentPhase = DevicePhase::CheckpointSave;
        remainingPhaseTicks = profile.checkpoint.saveTicks;
        return;
    }
    // Periodic policy: state was last persisted progressSinceSave
    // ticks ago; that work re-executes after restart.
    remainingTaskTicks += progressSinceSave;
    deviceStats.rolledBackTicks += progressSinceSave;
    progressSinceSave = 0;
    ++deviceStats.powerFailures;
    currentPhase = DevicePhase::Recharging;
}

void
Device::drawInstantaneous(Joules amount)
{
    storage.draw(amount);
    if (storage.depleted() && currentPhase == DevicePhase::Running) {
        // The draw brown-outs a running task.
        onPowerFailure();
    }
}

inline void
Device::applyNet(Watts net, Tick span)
{
    const Joules delta = energyOver(net, span);
    if (delta >= 0.0)
        storage.harvest(delta);
    else
        storage.draw(-delta);
}

inline Tick
Device::fundableTicks(Watts net) const
{
    // Whole ticks the store can fund at a net draw of -net: the
    // quotient is >= 0, so truncation is floor() without the libm
    // call.
    const Joules perTick = energyOver(-net, 1);
    return static_cast<Tick>(storage.energy() / perTick);
}

Device::StepPlan
Device::planStep(Tick now, Tick segmentEnd, Watts pin)
{
    const Tick span = segmentEnd - now;

    StepPlan plan;
    plan.pin = pin;

    switch (currentPhase) {
      case DevicePhase::Idle: {
        plan.run = span;
        return plan;
      }

      case DevicePhase::Running: {
        const bool periodic = profile.checkpoint.policy ==
            app::CheckpointPolicy::Periodic;
        Tick run = span;
        bool completes = false;
        if (remainingTaskTicks <= run) {
            run = remainingTaskTicks;
            completes = true;
        }
        if (periodic) {
            // Stop at the next scheduled checkpoint; a task that
            // completes on the same tick completes first.
            const Tick toCheckpoint =
                profile.checkpoint.periodicInterval - progressSinceSave;
            if (toCheckpoint < run || (toCheckpoint == run && !completes))
                run = toCheckpoint;
        }
        const Watts net = pin - taskPower;
        if (net < 0.0) {
            // Ticks until the store can no longer fund a whole tick.
            const Tick fundable = fundableTicks(net);
            if (fundable < run) {
                run = fundable;
                plan.starved = true;
            }
        }
        // run <= 0: cannot fund the next tick, a power failure (an
        // immediate transition; the commit consumes no time).
        plan.run = std::max<Tick>(run, 0);
        return plan;
      }

      case DevicePhase::CheckpointSave:
      case DevicePhase::Restoring: {
        plan.run = std::min(remainingPhaseTicks, span);
        return plan;
      }

      case DevicePhase::Recharging: {
        const Joules deficit = storage.deficitToRestart();
        if (deficit <= 0.0) {
            // Already above the restart threshold: immediate
            // transition to Restoring.
            plan.run = 0;
            return plan;
        }
        Tick run = span;
        if (pin > 0.0) {
            // Closed-form threshold solve within this segment: the
            // first tick count whose harvested energy covers the
            // deficit.
            const Joules perTick = energyOver(pin, 1);
            const Tick needed = ceilTicks(deficit / perTick);
            run = std::min(run, std::max<Tick>(needed, 1));
        }
        plan.run = run;
        return plan;
      }
    }
    util::panic("invalid device phase");
}

void
Device::commitStep(const StepPlan &plan)
{
    const Tick run = plan.run;

    switch (currentPhase) {
      case DevicePhase::Idle: {
        applyNet(plan.pin - profile.sleepPower, run);
        return;
      }

      case DevicePhase::Running: {
        if (run <= 0) {
            // Cannot fund the next tick: power failure.
            onPowerFailure();
            return;
        }
        const bool periodic = profile.checkpoint.policy ==
            app::CheckpointPolicy::Periodic;
        applyNet(plan.pin - taskPower, run);
        remainingTaskTicks -= run;
        deviceStats.activeTicks += run;
        if (periodic)
            progressSinceSave += run;
        if (remainingTaskTicks == 0) {
            taskPower = 0.0;
            progressSinceSave = 0;
            currentPhase = DevicePhase::Idle;
        } else if (periodic && progressSinceSave >=
                                   profile.checkpoint.periodicInterval) {
            periodicSaveInProgress = true;
            currentPhase = DevicePhase::CheckpointSave;
            remainingPhaseTicks = profile.checkpoint.saveTicks;
        }
        return;
      }

      case DevicePhase::CheckpointSave: {
        applyNet(plan.pin - profile.checkpoint.savePower, run);
        remainingPhaseTicks -= run;
        if (remainingPhaseTicks == 0) {
            ++deviceStats.checkpointSaves;
            if (periodicSaveInProgress) {
                // Proactive save: progress is persisted, keep going.
                periodicSaveInProgress = false;
                progressSinceSave = 0;
                currentPhase = DevicePhase::Running;
            } else {
                ++deviceStats.powerFailures;
                currentPhase = DevicePhase::Recharging;
            }
        }
        return;
      }

      case DevicePhase::Recharging: {
        if (run <= 0) {
            currentPhase = DevicePhase::Restoring;
            remainingPhaseTicks = profile.checkpoint.restoreTicks;
            return;
        }
        applyNet(plan.pin, run);
        deviceStats.rechargeTicks += run;
        if (storage.deficitToRestart() <= 0.0) {
            currentPhase = DevicePhase::Restoring;
            remainingPhaseTicks = profile.checkpoint.restoreTicks;
        }
        return;
      }

      case DevicePhase::Restoring: {
        applyNet(plan.pin - profile.checkpoint.restorePower, run);
        remainingPhaseTicks -= run;
        if (remainingPhaseTicks == 0)
            currentPhase = DevicePhase::Running;
        return;
      }
    }
    util::panic("invalid device phase");
}

Tick
Device::runCycles(Tick now, Tick segmentEnd, Watts pin)
{
    const app::CheckpointCosts &cp = profile.checkpoint;
    const Watts runNet = pin - taskPower;
    // Each phase below is the generic span it replaces, entered only
    // when that span ends strictly inside the segment; the first one
    // that would not hands the device back to the generic step in
    // that phase.
    for (;;) {
        // CheckpointSave: the just-in-time save, then power off.
        if (remainingPhaseTicks >= segmentEnd - now)
            return now;
        ++spanCount; // one per cycle started
        applyNet(pin - cp.savePower, remainingPhaseTicks);
        now += remainingPhaseTicks;
        remainingPhaseTicks = 0;
        ++deviceStats.checkpointSaves;
        ++deviceStats.powerFailures;
        currentPhase = DevicePhase::Recharging;

        // Recharging: harvest until the restart threshold.
        const Joules deficit = storage.deficitToRestart();
        if (deficit > 0.0) {
            const Tick needed = std::max<Tick>(
                ceilTicks(deficit / energyOver(pin, 1)), 1);
            if (needed >= segmentEnd - now)
                return now;
            applyNet(pin, needed);
            deviceStats.rechargeTicks += needed;
            now += needed;
            if (storage.deficitToRestart() > 0.0)
                return now;
        }

        // Restoring.
        currentPhase = DevicePhase::Restoring;
        remainingPhaseTicks = cp.restoreTicks;
        if (remainingPhaseTicks >= segmentEnd - now)
            return now;
        applyNet(pin - cp.restorePower, remainingPhaseTicks);
        now += remainingPhaseTicks;
        remainingPhaseTicks = 0;

        // Running until the store runs dry, then the failure.
        currentPhase = DevicePhase::Running;
        if (runNet >= 0.0)
            return now;
        const Tick fundable = fundableTicks(runNet);
        if (fundable >= remainingTaskTicks || fundable >= segmentEnd - now)
            return now;
        if (fundable > 0) {
            applyNet(runNet, fundable);
            remainingTaskTicks -= fundable;
            deviceStats.activeTicks += fundable;
            now += fundable;
            if (fundableTicks(runNet) >= 1) // the fold's re-test
                return now;
        }
        currentPhase = DevicePhase::CheckpointSave;
        remainingPhaseTicks = cp.saveTicks;
    }
}

Tick
Device::advance(Tick now, Tick limit)
{
    if (now >= limit)
        return now;
    const bool cycleKernel =
        profile.checkpoint.policy == app::CheckpointPolicy::JustInTime &&
        profile.checkpoint.saveTicks > 0 &&
        profile.checkpoint.restoreTicks > 0;

    Tick segmentEnd = now;
    Watts pin = 0.0;
    Tick spanStart = now;
    int zeroProgressStreak = 0;
    while (now < limit) {
        if (now >= segmentEnd) {
            // Every span starting inside one power-trace segment sees
            // the same harvest and the same segment end.
            segmentEnd = std::min(limit, powerCursor.nextChangeAfter(now));
            pin = powerCursor.valueAt(now);
        }

        if (cycleKernel && pin > 0.0 &&
            currentPhase == DevicePhase::CheckpointSave &&
            !periodicSaveInProgress && remainingPhaseTicks > 0) {
            // With both timers > 0, each zero-length span of a cycle
            // (an immediate failure, a recharge that starts above the
            // threshold) is followed by a save or restore of >= 1
            // tick, so the guard below cannot fire on a cycle the
            // kernel runs and restarts from zero after one.
            const Tick reached = runCycles(now, segmentEnd, pin);
            if (reached > now) {
                now = reached;
                zeroProgressStreak = 0;
            }
        }

        spanStart = now;
        ++spanCount;
        const bool wasActive = taskActive();
        const StepPlan plan = planStep(now, segmentEnd, pin);
        commitStep(plan);
        now += plan.run;

        // Stop exactly at task completion so the caller can observe
        // the completion tick.
        if (wasActive && !taskActive())
            break;

        // A zero-consumption step is a pure phase transition
        // (Running -> CheckpointSave, Recharging -> Restoring); the
        // next iteration makes time progress in the new phase. A
        // malformed profile (e.g. a restart threshold that cannot
        // fund a single tick of work) would cycle through phases
        // forever without advancing time — panic instead of spinning.
        if (plan.run > 0) {
            zeroProgressStreak = 0;
            if (plan.starved && fundableTicks(pin - taskPower) < 1) {
                // The fold: a Running span cut only by the store
                // running dry ends inside the segment, where the next
                // planStep would find exactly this power failure.
                onPowerFailure();
                zeroProgressStreak = 1;
            }
        } else if (++zeroProgressStreak > 2) {
            util::panic(util::msg(
                "Device::advance made no time progress for ",
                zeroProgressStreak, " iterations at tick ", now,
                " (limit ", limit, ", phase ",
                static_cast<int>(currentPhase), ", energy ",
                storage.energy(), " J, task ticks left ",
                remainingTaskTicks,
                "): malformed device/power profile"));
        }
    }
    // Re-seat the cursor on the segment holding the last span's
    // start: its position is persisted (QZCK blobs, the fleet's
    // cursor column), so it must not depend on how spans batch.
    powerCursor.valueAt(spanStart);
    return now;
}

} // namespace sim
} // namespace quetzal
