/**
 * @file
 * A second application on the same API: a batteryless wildlife
 * acoustic monitor. Demonstrates assembling the simulator manually —
 * custom traces, custom application, custom controller — instead of
 * going through sim::runExperiment().
 *
 * Build & run:  ./build/examples/wildlife_audio_monitor
 */

#include <iostream>

#include "app/audio_monitor.hpp"
#include "energy/harvester.hpp"
#include "energy/solar_model.hpp"
#include "policy/registry.hpp"
#include "sim/simulator.hpp"
#include "trace/event_generator.hpp"

int
main()
{
    using namespace quetzal;

    // Environment: sparse bird calls against a quiet forest — short
    // interesting events, long gaps, fewer cells (shaded canopy).
    trace::EventGeneratorConfig eventCfg;
    eventCfg.eventCount = 400;
    eventCfg.meanInterarrivalSeconds = 50.0;
    eventCfg.maxInterestingSeconds = 8.0;
    eventCfg.maxUninterestingSeconds = 25.0; // wind, rain, branches
    eventCfg.interestingProbability = 0.3;
    eventCfg.seed = 7;
    const trace::EventTrace events =
        trace::EventGenerator(eventCfg).generate();

    energy::SolarConfig solarCfg;
    solarCfg.peakIrradiance = 0.4; // canopy shade
    solarCfg.seed = 11;
    const Tick horizon = events.endTime() + 600 * kTicksPerSecond;
    energy::HarvesterConfig harvesterCfg;
    harvesterCfg.cellCount = 4;
    const energy::Harvester harvester(harvesterCfg);
    const energy::PowerTrace watts = harvester.powerTrace(
        energy::SolarModel(solarCfg).generate(horizon * 2));

    std::cout << "Wildlife audio monitor: " << events.size()
              << " events over "
              << ticksToSeconds(events.endTime()) / 3600.0
              << " h, harvest "
              << watts.meanValue(horizon) * 1e3 << " mW mean\n\n";

    for (const bool useQuetzal : {false, true}) {
        core::TaskSystem system;
        const app::ApplicationModel appModel =
            app::buildAudioMonitorApp(system, app::apollo4Device());
        auto controller = policy::makeController(
            useQuetzal ? policy::ControllerKind::Quetzal
                       : policy::ControllerKind::NoAdapt);

        sim::SimulationConfig simCfg;
        simCfg.bufferCapacity = 8; // audio clips are larger
        sim::Simulator simulator(simCfg, app::apollo4Device(), appModel,
                                 system, *controller, watts, events);
        const sim::Metrics metrics = simulator.run();
        metrics.printReport(std::cout, controller->name());
        std::cout << "\n";
    }

    std::cout << "The same scheduler and IBO engine drive a completely "
                 "different sensing pipeline —\nQuetzal's task/job "
                 "annotations are application-agnostic (paper "
                 "section 5.2).\n";
    return 0;
}
