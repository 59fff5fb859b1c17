#include "sim/device.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"
#include "util/wire.hpp"

namespace quetzal {
namespace sim {

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

void
Device::applyNet(Watts net, Tick span)
{
    const Joules delta = energyOver(net, span);
    if (delta >= 0.0)
        storage.harvest(delta);
    else
        storage.draw(-delta);
}

Device::StepPlan
Device::planStep(Tick now, Tick limit)
{
    // The span available inside the current power-trace segment.
    const Tick segmentEnd =
        std::min(limit, powerCursor.nextChangeAfter(now));
    const Tick span = segmentEnd - now;

    StepPlan plan;
    plan.pin = powerCursor.valueAt(now);

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
        const Watts net = plan.pin - taskPower;
        if (net < 0.0) {
            // Ticks until the store can no longer fund a whole tick.
            const Joules perTick = energyOver(-net, 1);
            const auto fundable =
                static_cast<Tick>(std::floor(storage.energy() / perTick));
            run = std::min(run, fundable);
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
        if (plan.pin > 0.0) {
            // Closed-form threshold solve within this segment: the
            // first tick count whose harvested energy covers the
            // deficit.
            const Joules perTick = energyOver(plan.pin, 1);
            const auto needed = static_cast<Tick>(
                std::ceil(deficit / perTick));
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
Device::advance(Tick now, Tick limit)
{
    int zeroProgressStreak = 0;
    while (now < limit) {
        const bool wasActive = taskActive();

        const StepPlan plan = planStep(now, limit);
        commitStep(plan);
        const Tick consumed = plan.run;
        now += consumed;

        // Stop exactly at task completion so the caller can observe
        // the completion tick.
        if (wasActive && !taskActive())
            return now;

        // A zero-consumption step is a pure phase transition
        // (Running -> CheckpointSave, Recharging -> Restoring); the
        // next iteration makes time progress in the new phase. A
        // malformed profile (e.g. a restart threshold that cannot
        // fund a single tick of work) would cycle through phases
        // forever without advancing time — panic instead of spinning.
        if (consumed > 0) {
            zeroProgressStreak = 0;
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
    return now;
}

} // namespace sim
} // namespace quetzal
