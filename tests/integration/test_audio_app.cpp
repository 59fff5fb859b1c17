/**
 * @file
 * End-to-end run of the second application (the wildlife audio
 * monitor) through the full simulator — the API-generality claim of
 * paper section 5.2 as an automated test rather than just an example.
 */

#include <gtest/gtest.h>

#include "app/audio_monitor.hpp"
#include "policy/registry.hpp"
#include "energy/harvester.hpp"
#include "energy/solar_model.hpp"
#include "sim/simulator.hpp"
#include "trace/event_generator.hpp"

namespace quetzal {
namespace sim {
namespace {

using policy::ControllerKind;

struct AudioRig
{
    trace::EventTrace events;
    energy::PowerTrace watts;

    AudioRig()
    {
        trace::EventGeneratorConfig eventCfg;
        eventCfg.eventCount = 150;
        eventCfg.meanInterarrivalSeconds = 40.0;
        eventCfg.maxInterestingSeconds = 8.0;
        eventCfg.maxUninterestingSeconds = 25.0;
        eventCfg.interestingProbability = 0.3;
        eventCfg.seed = 9;
        events = trace::EventGenerator(eventCfg).generate();

        energy::SolarConfig solarCfg;
        solarCfg.peakIrradiance = 0.4;
        solarCfg.seed = 10;
        energy::HarvesterConfig harvesterCfg;
        harvesterCfg.cellCount = 4;
        watts = energy::Harvester(harvesterCfg)
                    .powerTrace(energy::SolarModel(solarCfg).generate(
                        (events.endTime() + 700 * kTicksPerSecond) * 2));
    }

    Metrics
    run(std::unique_ptr<core::Controller> controller)
    {
        core::TaskSystem system;
        const app::ApplicationModel appModel =
            app::buildAudioMonitorApp(system, app::apollo4Device());
        SimulationConfig cfg;
        cfg.bufferCapacity = 8;
        Simulator simulator(cfg, app::apollo4Device(), appModel, system,
                            *controller, watts, events);
        return simulator.run();
    }
};

TEST(AudioApp, RunsEndToEndUnderQuetzal)
{
    AudioRig rig;
    const Metrics m =
        rig.run(policy::makeController(ControllerKind::Quetzal));
    EXPECT_GT(m.jobsCompleted, 0u);
    EXPECT_GT(m.txInterestingHq + m.txInterestingLq, 0u);
    EXPECT_EQ(m.interestingCaptured,
              m.iboDropsInteresting + m.fnDiscards + m.txInterestingHq +
                  m.txInterestingLq + m.unprocessedInteresting);
}

TEST(AudioApp, QuetzalBeatsNoAdaptHereToo)
{
    AudioRig rig;
    const Metrics qz =
        rig.run(policy::makeController(ControllerKind::Quetzal));
    const Metrics na =
        rig.run(policy::makeController(ControllerKind::NoAdapt));
    // The same machinery generalizes to a different pipeline.
    EXPECT_LE(qz.interestingDiscardedTotal(),
              na.interestingDiscardedTotal());
    EXPECT_EQ(na.txInterestingLq, 0u); // NA never degrades
}

TEST(AudioApp, DegradationUsesTheAudioOptions)
{
    AudioRig rig;
    const Metrics ad =
        rig.run(policy::makeController(ControllerKind::AlwaysDegrade));
    EXPECT_EQ(ad.txInterestingHq, 0u);
    EXPECT_GT(ad.txInterestingLq, 0u);
}

} // namespace
} // namespace sim
} // namespace quetzal
