/**
 * @file
 * Death tests for the zero-progress guards: a malformed device or
 * experiment configuration must abort with a diagnostic instead of
 * spinning the simulation loop forever. The scenarios construct a
 * storage element too small to fund a single tick of work but large
 * enough to pass the restart threshold, with free save/restore — the
 * phase machine then cycles Running -> CheckpointSave -> Recharging
 * -> Restoring without consuming time.
 */

#include <gtest/gtest.h>

#include "app/person_detection.hpp"
#include "policy/registry.hpp"
#include "sim/simulator.hpp"

namespace quetzal {
namespace sim {
namespace {

/**
 * Apollo4, except: a ~4 nJ storage element (cannot fund one tick of
 * any task, yet starts above the restart threshold) and zero-cost
 * checkpointing (the phase transitions consume no ticks).
 */
app::DeviceProfile
unfundableProfile()
{
    app::DeviceProfile profile = app::apollo4Device();
    profile.storage.capacitance = 1e-9;
    profile.checkpoint.saveTicks = 0;
    profile.checkpoint.restoreTicks = 0;
    return profile;
}

using DeathPathDeathTest = ::testing::Test;

TEST(DeathPathDeathTest, DeviceAdvancePanicsInsteadOfSpinning)
{
    const auto watts = energy::PowerTrace::constant(1e-3);
    Device device(unfundableProfile(), watts);
    device.startTask(10e-3, 100);
    EXPECT_DEATH((void)device.advance(0, 10'000),
                 "Device::advance made no time progress");
}

TEST(DeathPathDeathTest, StartTaskPreconditionsPanic)
{
    const auto watts = energy::PowerTrace::constant(50e-3);
    Device device(app::apollo4Device(), watts);
    EXPECT_DEATH(device.startTask(0.0, 100), "non-positive cost");
    EXPECT_DEATH(device.startTask(10e-3, 0), "non-positive cost");
    device.startTask(10e-3, 500);
    EXPECT_DEATH(device.startTask(10e-3, 500),
                 "while a task is active");
}

TEST(DeathPathDeathTest, SimulatorRunDiesOnMalformedDeviceProfile)
{
    // End-to-end: the same unfundable profile driven by the full
    // simulation loop. The first job the controller starts trips the
    // guard from inside Simulator::run — the run aborts instead of
    // hanging the experiment.
    core::TaskSystem system;
    const app::DeviceProfile profile = unfundableProfile();
    const app::ApplicationModel appModel =
        app::buildPersonDetectionApp(system, profile);
    const auto controller =
        policy::makeController(policy::ControllerKind::NoAdapt);
    const auto watts = energy::PowerTrace::constant(1e-3);
    const trace::EventTrace events({{500, 10'000, true}});

    SimulationConfig cfg;
    cfg.drainTicks = 30'000;
    Simulator sim(cfg, profile, appModel, system, *controller, watts,
                  events);
    EXPECT_DEATH((void)sim.run(), "no time progress");
}

TEST(DeathPathDeathTest, SimulatorRejectsMalformedConfig)
{
    core::TaskSystem system;
    const app::DeviceProfile profile = app::apollo4Device();
    const app::ApplicationModel appModel =
        app::buildPersonDetectionApp(system, profile);
    const auto controller =
        policy::makeController(policy::ControllerKind::NoAdapt);
    const auto watts = energy::PowerTrace::constant(10e-3);
    const trace::EventTrace events({{500, 1'000, true}});

    auto build = [&](SimulationConfig cfg) {
        Simulator sim(cfg, profile, appModel, system, *controller,
                      watts, events);
    };
    SimulationConfig zeroPeriod;
    zeroPeriod.capturePeriod = 0;
    EXPECT_EXIT(build(zeroPeriod), ::testing::ExitedWithCode(1),
                "capture period must be positive");

    SimulationConfig negativeJitter;
    negativeJitter.executionJitterSigma = -0.5;
    EXPECT_EXIT(build(negativeJitter), ::testing::ExitedWithCode(1),
                "jitter sigma must be non-negative");
}

} // namespace
} // namespace sim
} // namespace quetzal
