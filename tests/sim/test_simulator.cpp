/**
 * @file
 * Tests for the simulator loop: capture pipeline, job execution,
 * spawn semantics and conservation invariants.
 */

#include <gtest/gtest.h>

#include "app/person_detection.hpp"
#include "policy/registry.hpp"
#include "sim/simulator.hpp"
#include "trace/event_generator.hpp"

namespace quetzal {
namespace sim {
namespace {

using policy::ControllerKind;

struct Rig
{
    core::TaskSystem system;
    app::ApplicationModel appModel;
    std::unique_ptr<core::Controller> controller;
    energy::PowerTrace watts;
    trace::EventTrace events;

    Rig(std::unique_ptr<core::Controller> ctrl, Watts power,
        trace::EventTrace eventTrace)
        : appModel(app::buildPersonDetectionApp(system,
                                                app::apollo4Device())),
          controller(std::move(ctrl)),
          watts(energy::PowerTrace::constant(power)),
          events(std::move(eventTrace))
    {
    }
};

trace::EventTrace
singleEvent(Tick start, Tick duration, bool interesting)
{
    return trace::EventTrace({{start, duration, interesting}});
}

TEST(Simulator, QuietEnvironmentStoresNothing)
{
    Rig rig(policy::makeController(ControllerKind::NoAdapt), 50e-3,
            trace::EventTrace({{1'000'000, 1000, true}}));
    SimulationConfig cfg;
    cfg.drainTicks = 5'000;
    // Truncate: simulate only the first 100 s (event far away).
    rig.events = trace::EventTrace({{90'000, 1000, false}});
    Simulator sim(cfg, app::apollo4Device(), rig.appModel, rig.system,
                  *rig.controller, rig.watts, rig.events);
    const Metrics m = sim.run();
    EXPECT_GT(m.captures, 90u);
    EXPECT_EQ(m.storedInputs, 1u); // only the 1 s event frame
    EXPECT_EQ(m.interestingCaptured, 0u);
}

TEST(Simulator, InterestingEventFlowsToHqTransmission)
{
    // Plenty of power, one 5 s interesting event: all five inputs
    // should be classified and transmitted at high quality.
    Rig rig(policy::makeController(ControllerKind::NoAdapt), 200e-3,
            singleEvent(10'000, 5'000, true));
    SimulationConfig cfg;
    cfg.outcomeSeed = 5; // no misclassification draws fire at 3 % FN
    Simulator sim(cfg, app::apollo4Device(), rig.appModel, rig.system,
                  *rig.controller, rig.watts, rig.events);
    const Metrics m = sim.run();
    EXPECT_EQ(m.interestingCaptured, 5u);
    EXPECT_EQ(m.storedInputs, 5u);
    EXPECT_EQ(m.iboDropsInteresting, 0u);
    EXPECT_EQ(m.txInterestingHq + m.fnDiscards, 5u);
    EXPECT_EQ(m.txInterestingLq, 0u);
    EXPECT_EQ(m.unprocessedInteresting, 0u);
}

TEST(Simulator, OverflowDropsWhenBufferTiny)
{
    // Buffer of 1 with very low power: a long event must overflow.
    Rig rig(policy::makeController(ControllerKind::NoAdapt), 1e-3,
            singleEvent(5'000, 30'000, true));
    SimulationConfig cfg;
    cfg.bufferCapacity = 1;
    Simulator sim(cfg, app::apollo4Device(), rig.appModel, rig.system,
                  *rig.controller, rig.watts, rig.events);
    const Metrics m = sim.run();
    EXPECT_GT(m.iboDropsInteresting, 10u);
    // Conservation: every interesting capture is accounted once.
    EXPECT_EQ(m.interestingCaptured,
              m.iboDropsInteresting + m.fnDiscards + m.txInterestingHq +
                  m.txInterestingLq + m.unprocessedInteresting);
}

TEST(Simulator, ConservationHoldsAcrossControllers)
{
    const auto events =
        trace::EventGenerator(trace::EventGeneratorConfig::forPreset(
                                  trace::EnvironmentPreset::Crowded, 60,
                                  11))
            .generate();
    for (auto kind : {ControllerKind::NoAdapt,
                      ControllerKind::AlwaysDegrade,
                      ControllerKind::CatNap}) {
        Rig rig(policy::makeController(kind), 8e-3, events);
        SimulationConfig cfg;
        Simulator sim(cfg, app::apollo4Device(), rig.appModel,
                      rig.system, *rig.controller, rig.watts,
                      rig.events);
        const Metrics m = sim.run();
        EXPECT_EQ(m.interestingCaptured,
                  m.iboDropsInteresting + m.fnDiscards +
                      m.txInterestingHq + m.txInterestingLq +
                      m.unprocessedInteresting)
            << rig.controller->name();
        EXPECT_GT(m.jobsCompleted, 0u);
    }
}

TEST(Simulator, DegradedControllerSendsLowQuality)
{
    Rig rig(policy::makeController(ControllerKind::AlwaysDegrade),
            200e-3, singleEvent(10'000, 5'000, true));
    SimulationConfig cfg;
    Simulator sim(cfg, app::apollo4Device(), rig.appModel, rig.system,
                  *rig.controller, rig.watts, rig.events);
    const Metrics m = sim.run();
    EXPECT_EQ(m.txInterestingHq, 0u);
    EXPECT_GT(m.txInterestingLq, 0u);
    EXPECT_EQ(m.degradedJobs, m.jobsCompleted);
}

TEST(Simulator, CaptureRateDegradationMissesEvents)
{
    // Fig. 2b mechanism: a 9 s event sampled at 5 s period yields at
    // most 2 captures of 9 nominal.
    Rig rig(policy::makeController(ControllerKind::NoAdapt), 200e-3,
            singleEvent(10'000, 9'000, true));
    SimulationConfig cfg;
    cfg.capturePeriod = 5'000;
    Simulator sim(cfg, app::apollo4Device(), rig.appModel, rig.system,
                  *rig.controller, rig.watts, rig.events);
    const Metrics m = sim.run();
    EXPECT_EQ(m.interestingInputsNominal, 9u);
    EXPECT_LE(m.interestingCaptured, 2u);
    EXPECT_GE(m.interestingMissedAtCapture(), 7u);
}

TEST(Simulator, SchedulerOverheadAccounted)
{
    Rig rig(policy::makeController(ControllerKind::Quetzal),
            50e-3, singleEvent(10'000, 5'000, true));
    SimulationConfig cfg;
    cfg.schedulerOverheadSeconds = 0.01;
    cfg.schedulerOverheadEnergy = 1e-6;
    Simulator sim(cfg, app::apollo4Device(), rig.appModel, rig.system,
                  *rig.controller, rig.watts, rig.events);
    const Metrics m = sim.run();
    EXPECT_GT(m.schedulerOverheadSeconds, 0.0);
    EXPECT_GT(m.schedulerOverheadEnergy, 0.0);
    EXPECT_GT(m.jobsCompleted, 0u);
}

TEST(Simulator, InfiniteBufferNeverDrops)
{
    Rig rig(policy::makeController(ControllerKind::NoAdapt), 2e-3,
            singleEvent(5'000, 60'000, true));
    SimulationConfig cfg;
    cfg.infiniteBuffer = true;
    cfg.drainToEmpty = true;
    Simulator sim(cfg, app::apollo4Device(), rig.appModel, rig.system,
                  *rig.controller, rig.watts, rig.events);
    const Metrics m = sim.run();
    EXPECT_EQ(m.iboDropsInteresting, 0u);
    EXPECT_EQ(m.unprocessedInteresting, 0u);
    EXPECT_EQ(m.interestingCaptured,
              m.fnDiscards + m.txInterestingHq + m.txInterestingLq);
}

} // namespace
} // namespace sim
} // namespace quetzal
