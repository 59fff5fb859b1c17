/**
 * @file
 * Tests for the intermittent device model, including the Eq. (1)
 * service-time property and equivalence with a naive per-tick
 * reference stepper.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/device.hpp"

namespace quetzal {
namespace sim {
namespace {

app::DeviceProfile
profile()
{
    return app::apollo4Device();
}

TEST(Device, StartsIdleAndFull)
{
    const auto watts = energy::PowerTrace::constant(10e-3);
    Device device(profile(), watts);
    EXPECT_EQ(device.phase(), DevicePhase::Idle);
    EXPECT_FALSE(device.taskActive());
    EXPECT_NEAR(device.energy(), device.store().capacity(), 1e-12);
}

TEST(Device, ComputeBoundTaskFinishesOnTime)
{
    // Harvest exceeds draw: the task takes exactly t_exe.
    const auto watts = energy::PowerTrace::constant(50e-3);
    Device device(profile(), watts);
    device.startTask(10e-3, 500);
    const Tick done = device.advance(0, 10'000);
    EXPECT_EQ(done, 500);
    EXPECT_FALSE(device.taskActive());
    EXPECT_EQ(device.stats().powerFailures, 0u);
    EXPECT_EQ(device.stats().activeTicks, 500);
}

TEST(Device, EnergyBoundTaskApproachesEq1)
{
    // Big task from a full store at low power: the end-to-end time
    // approaches E_exe / P_in (paper Eq. 1).
    const Watts pin = 5e-3;
    const Watts pexe = 100e-3;
    const Tick exeTicks = 20'000; // 2 J >> 0.126 J capacity
    const auto watts = energy::PowerTrace::constant(pin);
    Device device(profile(), watts);
    device.startTask(pexe, exeTicks);
    const Tick done = device.advance(0, 100'000'000);
    EXPECT_FALSE(device.taskActive());
    const double expected =
        ticksToSeconds(exeTicks) * pexe / pin; // 400 s
    // Within 20 %: checkpoint overheads and the initial full store
    // shift the exact value.
    EXPECT_NEAR(ticksToSeconds(done), expected, 0.2 * expected);
    EXPECT_GT(device.stats().powerFailures, 0u);
    EXPECT_GT(device.stats().rechargeTicks, 0);
}

TEST(Device, IdleHarvestsAndClampsAtCapacity)
{
    const auto watts = energy::PowerTrace::constant(10e-3);
    Device device(profile(), watts);
    device.drawInstantaneous(device.energy()); // empty it
    EXPECT_NEAR(device.energy(), 0.0, 1e-12);
    device.advance(0, 60'000); // 60 s of 10 mW minus sleep
    EXPECT_GT(device.energy(), 0.0);
    device.advance(60'000, 600'000'000);
    EXPECT_NEAR(device.energy(), device.store().capacity(), 1e-9);
}

TEST(Device, AdvanceStopsAtTaskCompletion)
{
    const auto watts = energy::PowerTrace::constant(50e-3);
    Device device(profile(), watts);
    device.startTask(10e-3, 123);
    const Tick done = device.advance(0, 1'000'000);
    EXPECT_EQ(done, 123);
}

TEST(Device, ZeroPowerNeverCompletesEnergyBoundTask)
{
    const auto watts = energy::PowerTrace::constant(0.0);
    Device device(profile(), watts);
    // Drain the store with a big task: it must stall forever.
    device.startTask(100e-3, 1'000'000);
    const Tick reached = device.advance(0, 10'000'000);
    EXPECT_EQ(reached, 10'000'000);
    EXPECT_TRUE(device.taskActive());
}

TEST(Device, InstantaneousDrawDuringRunTriggersCheckpoint)
{
    const auto watts = energy::PowerTrace::constant(1e-3);
    Device device(profile(), watts);
    device.startTask(10e-3, 5'000);
    device.advance(0, 100);
    ASSERT_EQ(device.phase(), DevicePhase::Running);
    device.drawInstantaneous(device.energy() + 1.0);
    EXPECT_EQ(device.phase(), DevicePhase::CheckpointSave);
}

TEST(Device, TaskCostConservation)
{
    // Accounting identity: initial + harvested = final + consumed,
    // approximated through the run (checkpoint + task + sleep draws).
    const Watts pin = 20e-3;
    const auto watts = energy::PowerTrace::constant(pin);
    Device device(profile(), watts);
    const Joules before = device.energy();
    device.startTask(100e-3, 1'000); // 0.1 J task
    const Tick done = device.advance(0, 10'000'000);
    const Joules harvested = pin * ticksToSeconds(done);
    const Joules consumed = before + harvested - device.energy();
    // Must at least cover the task energy, plus bounded overheads.
    EXPECT_GE(consumed, 0.1 - 1e-9);
    EXPECT_LE(consumed, 0.1 + 0.05);
}

/**
 * Reference stepper: literal 1 ms ticks, no batching. The batched
 * device must agree on completion time and stats.
 */
struct NaiveResult
{
    Tick completion = 0;
    std::uint64_t failures = 0;
};

NaiveResult
naiveRun(const app::DeviceProfile &dev, const energy::PowerTrace &watts,
         Watts taskPower, Tick exeTicks)
{
    energy::EnergyStorage store(dev.storage);
    NaiveResult result;
    Tick remaining = exeTicks;
    Tick now = 0;
    enum { Run, Save, Charge, Restore } phase = Run;
    Tick phaseLeft = 0;
    while (remaining > 0 && now < 100'000'000) {
        const Watts pin = watts.valueAt(now);
        switch (phase) {
          case Run: {
            const Joules need = energyOver(taskPower, 1);
            if (store.energy() < need) {
                phase = Save;
                phaseLeft = dev.checkpoint.saveTicks;
                break;
            }
            store.draw(need);
            store.harvest(energyOver(pin, 1));
            --remaining;
            ++now;
            break;
          }
          case Save:
            store.harvest(energyOver(pin, 1));
            store.draw(energyOver(dev.checkpoint.savePower, 1));
            ++now;
            if (--phaseLeft == 0) {
                ++result.failures;
                phase = Charge;
            }
            break;
          case Charge:
            store.harvest(energyOver(pin, 1));
            ++now;
            if (store.deficitToRestart() <= 0.0) {
                phase = Restore;
                phaseLeft = dev.checkpoint.restoreTicks;
            }
            break;
          case Restore:
            store.harvest(energyOver(pin, 1));
            store.draw(energyOver(dev.checkpoint.restorePower, 1));
            ++now;
            if (--phaseLeft == 0)
                phase = Run;
            break;
        }
    }
    result.completion = now;
    return result;
}

class DeviceEquivalence
    : public ::testing::TestWithParam<std::pair<double, double>>
{
};

TEST_P(DeviceEquivalence, BatchedMatchesNaiveStepper)
{
    const auto [pinMw, pexeMw] = GetParam();
    const auto watts = energy::PowerTrace::constant(pinMw * 1e-3);
    const Tick exeTicks = 3'000;

    Device device(profile(), watts);
    device.startTask(pexeMw * 1e-3, exeTicks);
    const Tick batched = device.advance(0, 100'000'000);

    const NaiveResult naive =
        naiveRun(profile(), watts, pexeMw * 1e-3, exeTicks);

    // The naive stepper interleaves harvest and draw within a tick
    // slightly differently (it requires the gross per-tick energy up
    // front where the batched engine funds the net), so completion
    // and failure counts agree to within a small per-cycle rounding.
    const double tolerance =
        std::max(5.0, 0.02 * static_cast<double>(naive.completion));
    EXPECT_NEAR(static_cast<double>(batched),
                static_cast<double>(naive.completion), tolerance);
    EXPECT_NEAR(static_cast<double>(device.stats().powerFailures),
                static_cast<double>(naive.failures),
                2.0 + 0.05 * static_cast<double>(naive.failures));
}

INSTANTIATE_TEST_SUITE_P(
    PowerPoints, DeviceEquivalence,
    ::testing::Values(std::make_pair(50.0, 10.0), // compute bound
                      std::make_pair(10.0, 10.0), // boundary
                      std::make_pair(5.0, 20.0),  // mild deficit
                      std::make_pair(2.0, 100.0), // deep deficit
                      std::make_pair(25.0, 100.0)));

TEST(DeviceDeathTest, StartWhileActivePanics)
{
    const auto watts = energy::PowerTrace::constant(10e-3);
    Device device(profile(), watts);
    device.startTask(10e-3, 100);
    EXPECT_DEATH(device.startTask(10e-3, 100), "active");
}

TEST(DeviceDeathTest, NonPositiveCostPanics)
{
    const auto watts = energy::PowerTrace::constant(10e-3);
    Device device(profile(), watts);
    EXPECT_DEATH(device.startTask(0.0, 100), "cost");
    EXPECT_DEATH(device.startTask(1e-3, 0), "cost");
}

TEST(DeviceDeathTest, ZeroProgressCyclePanics)
{
    // Malformed profile: free checkpoints plus a task whose per-tick
    // energy (100 W x 1 ms = 0.1 J) exceeds the restart energy
    // (~0.026 J), so once depleted the device cycles Restoring ->
    // Running (fails immediately) -> CheckpointSave -> Recharging
    // without ever advancing time. The guard must panic instead of
    // spinning forever.
    app::DeviceProfile broken = profile();
    broken.checkpoint.saveTicks = 0;
    broken.checkpoint.restoreTicks = 0;
    const auto watts = energy::PowerTrace::constant(1e-3);
    Device device(broken, watts);
    device.drawInstantaneous(device.energy()); // deplete the store
    device.startTask(100.0, 100);
    EXPECT_DEATH(device.advance(0, 1'000'000), "no time progress");
}

TEST(DeviceDeathTest, ZeroProgressCyclePanicsAcrossSegments)
{
    // The same malformed profile (a 30 W task: 0.03 J per tick, above
    // the restart energy) on a trace that changes every second, with
    // a zero-power stretch. The task drains the full store in four
    // ticks, its failure is folded into that span, and the ~14 s
    // recharge crosses over a dozen segment boundaries before the
    // zero-length Restoring -> Running -> CheckpointSave ->
    // Recharging cycle starts. The guard's count must survive the
    // segment loop.
    app::DeviceProfile broken = profile();
    broken.checkpoint.saveTicks = 0;
    broken.checkpoint.restoreTicks = 0;
    std::vector<energy::PowerTrace::Segment> segments;
    for (Tick s = 0; s < 120; ++s)
        segments.push_back(
            {s * 1'000, s == 3 ? 0.0 : (s % 2 ? 1e-3 : 2e-3)});
    const energy::PowerTrace watts(std::move(segments));
    Device device(broken, watts);
    device.startTask(30.0, 100);
    EXPECT_DEATH(device.advance(0, 1'000'000), "no time progress");
}

} // namespace
} // namespace sim
} // namespace quetzal
