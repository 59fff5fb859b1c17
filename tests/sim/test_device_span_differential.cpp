/**
 * @file
 * Differential test of Device::advance against the loop it replaced:
 * one planStep/commitStep pair per phase transition, two power-trace
 * cursor queries per span, no fold and no cycle kernel. That loop
 * lives only here, as SpanPerTransitionDevice. Seeded random draws
 * drive both through the same calls (startTask, advance,
 * drawInstantaneous, export/import) and compare the returned tick
 * and exportState() after every advance, energies as bit patterns.
 *
 * The draws cover both checkpoint policies, zero save/restore timers
 * (which keep the cycle kernel out), multi-segment traces with
 * equal-valued adjacent segments, zero-power stretches and segments
 * shorter than one brown-out cycle, and limits that land exactly on
 * a starvation tick or a segment boundary.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "app/device_profiles.hpp"
#include "sim/device.hpp"
#include "support/random.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"

namespace quetzal {
namespace sim {
namespace {

/**
 * The one-span-per-transition device loop, kept verbatim as the
 * reference: every span re-queries the power cursor, and a power
 * failure, a save completion and a restore completion are each
 * their own span.
 */
class SpanPerTransitionDevice
{
  public:
    SpanPerTransitionDevice(const app::DeviceProfile &profile_,
                            const energy::PowerTrace &watts)
        : profile(profile_), powerCursor(watts.cursor()),
          storage(profile_.storage)
    {
    }

    bool taskActive() const { return remainingTaskTicks > 0; }

    void
    startTask(Watts power, Tick exeTicks)
    {
        taskPower = power;
        remainingTaskTicks = exeTicks;
        currentPhase = storage.depleted() ? DevicePhase::Recharging
                                          : DevicePhase::Running;
    }

    void
    drawInstantaneous(Joules amount)
    {
        storage.draw(amount);
        if (storage.depleted() && currentPhase == DevicePhase::Running)
            onPowerFailure();
    }

    Device::State
    exportState() const
    {
        Device::State state;
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
    importState(const Device::State &state)
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

    Tick
    advance(Tick now, Tick limit)
    {
        int zeroProgressStreak = 0;
        while (now < limit) {
            const bool wasActive = taskActive();
            const Tick consumed = step(now, limit);
            now += consumed;
            if (wasActive && !taskActive())
                return now;
            if (consumed > 0)
                zeroProgressStreak = 0;
            else if (++zeroProgressStreak > 2)
                util::panic("reference loop made no time progress");
        }
        return now;
    }

    /**
     * The first tick in [now, limit) at which a Running device finds
     * it cannot fund the next tick (the zero-length failure span), or
     * limit when none comes first. Steps a copy; this one is
     * untouched.
     */
    Tick
    nextStarvation(Tick now, Tick limit) const
    {
        SpanPerTransitionDevice probe = *this;
        while (now < limit) {
            const bool wasActive = probe.taskActive();
            const bool running = probe.currentPhase == DevicePhase::Running;
            const Tick consumed = probe.step(now, limit);
            if (running && consumed == 0 &&
                probe.currentPhase != DevicePhase::Running)
                return now;
            now += consumed;
            if (wasActive && !probe.taskActive())
                break;
        }
        return limit;
    }

  private:
    /** One planStep/commitStep pair; returns the ticks consumed. */
    Tick
    step(Tick now, Tick limit)
    {
        const Tick segmentEnd =
            std::min(limit, powerCursor.nextChangeAfter(now));
        const Tick span = segmentEnd - now;
        const Watts pin = powerCursor.valueAt(now);
        const bool periodic = profile.checkpoint.policy ==
            app::CheckpointPolicy::Periodic;

        Tick run = 0;
        switch (currentPhase) {
          case DevicePhase::Idle:
            run = span;
            break;
          case DevicePhase::Running: {
            run = span;
            bool completes = false;
            if (remainingTaskTicks <= run) {
                run = remainingTaskTicks;
                completes = true;
            }
            if (periodic) {
                const Tick toCheckpoint =
                    profile.checkpoint.periodicInterval -
                    progressSinceSave;
                if (toCheckpoint < run ||
                    (toCheckpoint == run && !completes))
                    run = toCheckpoint;
            }
            const Watts net = pin - taskPower;
            if (net < 0.0) {
                const Joules perTick = energyOver(-net, 1);
                const auto fundable = static_cast<Tick>(
                    std::floor(storage.energy() / perTick));
                run = std::min(run, fundable);
            }
            run = std::max<Tick>(run, 0);
            break;
          }
          case DevicePhase::CheckpointSave:
          case DevicePhase::Restoring:
            run = std::min(remainingPhaseTicks, span);
            break;
          case DevicePhase::Recharging: {
            const Joules deficit = storage.deficitToRestart();
            if (deficit <= 0.0) {
                run = 0;
                break;
            }
            run = span;
            if (pin > 0.0) {
                const Joules perTick = energyOver(pin, 1);
                const auto needed = static_cast<Tick>(
                    std::ceil(deficit / perTick));
                run = std::min(run, std::max<Tick>(needed, 1));
            }
            break;
          }
        }

        switch (currentPhase) {
          case DevicePhase::Idle:
            applyNet(pin - profile.sleepPower, run);
            break;
          case DevicePhase::Running:
            if (run <= 0) {
                onPowerFailure();
                break;
            }
            applyNet(pin - taskPower, run);
            remainingTaskTicks -= run;
            deviceStats.activeTicks += run;
            if (periodic)
                progressSinceSave += run;
            if (remainingTaskTicks == 0) {
                taskPower = 0.0;
                progressSinceSave = 0;
                currentPhase = DevicePhase::Idle;
            } else if (periodic &&
                       progressSinceSave >=
                           profile.checkpoint.periodicInterval) {
                periodicSaveInProgress = true;
                currentPhase = DevicePhase::CheckpointSave;
                remainingPhaseTicks = profile.checkpoint.saveTicks;
            }
            break;
          case DevicePhase::CheckpointSave:
            applyNet(pin - profile.checkpoint.savePower, run);
            remainingPhaseTicks -= run;
            if (remainingPhaseTicks == 0) {
                ++deviceStats.checkpointSaves;
                if (periodicSaveInProgress) {
                    periodicSaveInProgress = false;
                    progressSinceSave = 0;
                    currentPhase = DevicePhase::Running;
                } else {
                    ++deviceStats.powerFailures;
                    currentPhase = DevicePhase::Recharging;
                }
            }
            break;
          case DevicePhase::Recharging:
            if (run <= 0) {
                currentPhase = DevicePhase::Restoring;
                remainingPhaseTicks = profile.checkpoint.restoreTicks;
                break;
            }
            applyNet(pin, run);
            deviceStats.rechargeTicks += run;
            if (storage.deficitToRestart() <= 0.0) {
                currentPhase = DevicePhase::Restoring;
                remainingPhaseTicks = profile.checkpoint.restoreTicks;
            }
            break;
          case DevicePhase::Restoring:
            applyNet(pin - profile.checkpoint.restorePower, run);
            remainingPhaseTicks -= run;
            if (remainingPhaseTicks == 0)
                currentPhase = DevicePhase::Running;
            break;
        }
        return run;
    }

    void
    onPowerFailure()
    {
        if (profile.checkpoint.policy ==
            app::CheckpointPolicy::JustInTime) {
            currentPhase = DevicePhase::CheckpointSave;
            remainingPhaseTicks = profile.checkpoint.saveTicks;
            return;
        }
        remainingTaskTicks += progressSinceSave;
        deviceStats.rolledBackTicks += progressSinceSave;
        progressSinceSave = 0;
        ++deviceStats.powerFailures;
        currentPhase = DevicePhase::Recharging;
    }

    void
    applyNet(Watts net, Tick span)
    {
        const Joules delta = energyOver(net, span);
        if (delta >= 0.0)
            storage.harvest(delta);
        else
            storage.draw(-delta);
    }

    app::DeviceProfile profile;
    energy::PowerTrace::Cursor powerCursor;
    energy::EnergyStorage storage;
    DevicePhase currentPhase = DevicePhase::Idle;
    Watts taskPower = 0.0;
    Tick remainingTaskTicks = 0;
    Tick remainingPhaseTicks = 0;
    Tick progressSinceSave = 0;
    bool periodicSaveInProgress = false;
    DeviceStats deviceStats;
};

std::uint64_t
bits(double value)
{
    std::uint64_t out;
    std::memcpy(&out, &value, sizeof out);
    return out;
}

::testing::AssertionResult
sameState(const Device::State &got, const Device::State &want)
{
    auto fail = [](const char *field, auto a, auto b) {
        return ::testing::AssertionFailure()
            << field << ": device " << a << ", reference " << b;
    };
    if (bits(got.energy) != bits(want.energy))
        return fail("energy", got.energy, want.energy);
    if (bits(got.rejectedHarvest) != bits(want.rejectedHarvest))
        return fail("rejectedHarvest", got.rejectedHarvest,
                    want.rejectedHarvest);
    if (got.phase != want.phase)
        return fail("phase", static_cast<int>(got.phase),
                    static_cast<int>(want.phase));
    if (bits(got.taskPower) != bits(want.taskPower))
        return fail("taskPower", got.taskPower, want.taskPower);
    if (got.remainingTaskTicks != want.remainingTaskTicks)
        return fail("remainingTaskTicks", got.remainingTaskTicks,
                    want.remainingTaskTicks);
    if (got.remainingPhaseTicks != want.remainingPhaseTicks)
        return fail("remainingPhaseTicks", got.remainingPhaseTicks,
                    want.remainingPhaseTicks);
    if (got.progressSinceSave != want.progressSinceSave)
        return fail("progressSinceSave", got.progressSinceSave,
                    want.progressSinceSave);
    if (got.periodicSaveInProgress != want.periodicSaveInProgress)
        return fail("periodicSaveInProgress", got.periodicSaveInProgress,
                    want.periodicSaveInProgress);
    if (got.cursorIndex != want.cursorIndex)
        return fail("cursorIndex", got.cursorIndex, want.cursorIndex);
    const DeviceStats &g = got.stats;
    const DeviceStats &w = want.stats;
    if (g.powerFailures != w.powerFailures)
        return fail("powerFailures", g.powerFailures, w.powerFailures);
    if (g.checkpointSaves != w.checkpointSaves)
        return fail("checkpointSaves", g.checkpointSaves,
                    w.checkpointSaves);
    if (g.rechargeTicks != w.rechargeTicks)
        return fail("rechargeTicks", g.rechargeTicks, w.rechargeTicks);
    if (g.activeTicks != w.activeTicks)
        return fail("activeTicks", g.activeTicks, w.activeTicks);
    if (g.rolledBackTicks != w.rolledBackTicks)
        return fail("rolledBackTicks", g.rolledBackTicks,
                    w.rolledBackTicks);
    return ::testing::AssertionSuccess();
}

/** A harvest trace of `count` segments whose lengths reach up to
 *  `maxLength` ticks; about one segment in five repeats its
 *  predecessor's value and one in five harvests nothing. */
energy::PowerTrace
randomTrace(util::Rng &rng, int count, Tick maxLength)
{
    std::vector<energy::PowerTrace::Segment> segments;
    Tick start = rng.uniformInt(0, 50);
    double value = 0.0;
    for (int i = 0; i < count; ++i) {
        const auto kind = rng.uniformInt(0, 9);
        if (kind < 2)
            value = 0.0;
        else if (kind >= 4 || i == 0)
            value = uniformIn(rng, 0.0, 30e-3);
        segments.push_back({start, value});
        start += rng.uniformInt(1, maxLength);
    }
    return energy::PowerTrace(std::move(segments));
}

app::DeviceProfile
randomProfile(util::Rng &rng)
{
    app::DeviceProfile profile = app::apollo4Device();
    // Smaller stores make shorter brown-out cycles: many per segment.
    profile.storage.capacitance *= uniformIn(rng, 0.02, 1.0);
    profile.checkpoint.policy = rng.bernoulli(0.5)
        ? app::CheckpointPolicy::JustInTime
        : app::CheckpointPolicy::Periodic;
    profile.checkpoint.periodicInterval = rng.uniformInt(20, 3000);
    // A zero timer keeps the cycle kernel out; both zero is the
    // malformed profile the zero-progress death tests cover.
    profile.checkpoint.saveTicks = rng.uniformInt(0, 30);
    profile.checkpoint.restoreTicks =
        rng.uniformInt(profile.checkpoint.saveTicks == 0 ? 1 : 0, 30);
    profile.checkpoint.savePower = uniformIn(rng, 0.0, 20e-3);
    profile.checkpoint.restorePower = uniformIn(rng, 0.0, 20e-3);
    return profile;
}

/** The first segment start strictly after `now`, or `fallback`. */
Tick
nextBoundary(const energy::PowerTrace &watts, Tick now, Tick fallback)
{
    for (const auto &segment : watts.data()) {
        if (segment.start > now)
            return segment.start;
    }
    return fallback;
}

class DeviceSpanDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(DeviceSpanDifferential, MatchesTheOneSpanPerTransitionLoop)
{
    constexpr int kDrawsPerSeed = 100;
    constexpr int kCallsPerDraw = 120;
    util::Rng rng(0xd1ffu + 7919u * static_cast<std::uint64_t>(GetParam()));

    std::uint64_t failures = 0;
    for (int draw = 0; draw < kDrawsPerSeed; ++draw) {
        const app::DeviceProfile profile = randomProfile(rng);
        const Tick maxLength = rng.bernoulli(0.5)
            ? rng.uniformInt(1, 200)
            : rng.uniformInt(1000, 200'000);
        const energy::PowerTrace watts = randomTrace(
            rng, static_cast<int>(rng.uniformInt(1, 300)), maxLength);

        Device device(profile, watts);
        SpanPerTransitionDevice reference(profile, watts);
        Tick now = rng.uniformInt(0, 100);

        for (int call = 0; call < kCallsPerDraw; ++call) {
            const std::string where = "draw " + std::to_string(draw) +
                ", call " + std::to_string(call) + ", tick " +
                std::to_string(now);
            if (!device.taskActive() && rng.bernoulli(0.8)) {
                const Watts power = uniformIn(rng, 1e-3, 50e-3);
                const Tick exeTicks = rng.uniformInt(1, 300'000);
                device.startTask(power, exeTicks);
                reference.startTask(power, exeTicks);
            }

            const Tick far = now + rng.uniformInt(1, 120'000);
            Tick limit = far;
            switch (rng.uniformInt(0, 4)) {
              case 0:
                limit = reference.nextStarvation(now, far);
                break;
              case 1:
                limit = nextBoundary(watts, now, far);
                break;
              case 2:
                limit = now; // an empty call leaves everything alone
                break;
              default:
                break;
            }

            const Tick got = device.advance(now, limit);
            const Tick want = reference.advance(now, limit);
            ASSERT_EQ(got, want) << where;
            ASSERT_TRUE(sameState(device.exportState(),
                                  reference.exportState()))
                << where;
            now = got;

            if (rng.bernoulli(0.3)) {
                // A capture-sized draw, or one that empties the store.
                const Joules amount = rng.bernoulli(0.8)
                    ? uniformIn(rng, 0.0, 2e-3)
                    : device.energy() * uniformIn(rng, 0.9, 1.5);
                device.drawInstantaneous(amount);
                reference.drawInstantaneous(amount);
            }
            if (rng.bernoulli(0.05)) {
                // Rehydrate both, as the fleet does every slab.
                const Device::State state = device.exportState();
                device.importState(state);
                reference.importState(state);
            }
        }
        failures += device.stats().powerFailures;
    }
    // The draws must actually brown out, or they test nothing.
    EXPECT_GT(failures, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeviceSpanDifferential,
                         ::testing::Range(0, 8));

} // namespace
} // namespace sim
} // namespace quetzal
