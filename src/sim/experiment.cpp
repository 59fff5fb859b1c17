#include "sim/experiment.hpp"

#include <fstream>
#include <memory>
#include <optional>

#include "app/person_detection.hpp"
#include "core/runtime.hpp"
#include "energy/harvester.hpp"
#include "energy/solar_model.hpp"
#include "fault/fault_injector.hpp"
#include "hw/mcu_model.hpp"
#include "sim/simulator.hpp"
#include "trace/event_generator.hpp"
#include "util/logging.hpp"

namespace quetzal {
namespace sim {

std::string
controllerKindName(ControllerKind kind)
{
    return policy::controllerRow(kind).label;
}

std::string
experimentLabel(const ExperimentConfig &config)
{
    if (!config.policyName.empty())
        return config.policyName;
    if (config.controller == ControllerKind::BufferThreshold) {
        return util::msg("THR-",
                         static_cast<int>(config.bufferThreshold * 100.0),
                         "%");
    }
    return controllerKindName(config.controller);
}

trace::EventTrace
buildEventTrace(const ExperimentConfig &config)
{
    const auto eventCfg = trace::EventGeneratorConfig::forPreset(
        config.environment, config.eventCount, config.seed);
    return trace::EventGenerator(eventCfg).generate();
}

energy::PowerTrace
buildPowerTrace(const ExperimentConfig &config,
                const trace::EventTrace &events)
{
    if (!config.powerTraceCsv.empty()) {
        // Replay a measured trace (paper section 6.2 methodology).
        std::ifstream in(config.powerTraceCsv);
        if (!in)
            util::fatal(util::msg("cannot open power trace: ",
                                  config.powerTraceCsv));
        return energy::PowerTrace::readCsv(in);
    }
    const Tick horizon = events.endTime() + config.sim.drainTicks +
        kTicksPerSecond;
    energy::HarvesterConfig harvesterCfg;
    harvesterCfg.cellCount = config.harvesterCells;
    const energy::Harvester harvester(harvesterCfg);
    energy::SolarConfig solarCfg;
    solarCfg.seed = config.seed ^ 0x5eedf00dull;
    return harvester.powerTrace(
        energy::SolarModel(solarCfg).generate(horizon * 5));
}

Metrics
runExperiment(const ExperimentConfig &config)
{
    // --- Environment --------------------------------------------------
    // Shared traces (ensembles / sweeps) are built once by the caller
    // and reused read-only; otherwise build both from the parameters.
    std::shared_ptr<const trace::EventTrace> eventsPtr =
        config.sharedEvents;
    if (!eventsPtr)
        eventsPtr = std::make_shared<const trace::EventTrace>(
            buildEventTrace(config));
    const trace::EventTrace &events = *eventsPtr;

    std::shared_ptr<const energy::PowerTrace> wattsPtr =
        config.sharedPowerTrace;
    if (!wattsPtr)
        wattsPtr = std::make_shared<const energy::PowerTrace>(
            buildPowerTrace(config, events));

    // --- Faults ---------------------------------------------------------
    // Instantiated only for a non-inert spec, so the clean path below
    // is exactly the pre-fault-subsystem code. Shared traces stay
    // untouched: the perturbed power trace is this run's own copy.
    std::optional<fault::FaultInjector> faultInjector;
    if (!config.faults.inert()) {
        faultInjector.emplace(config.faults, config.seed);
        faultInjector->prepare(events.endTime() + config.sim.drainTicks);
        wattsPtr = std::make_shared<const energy::PowerTrace>(
            faultInjector->perturbPowerTrace(*wattsPtr));
    }
    const energy::PowerTrace &watts = *wattsPtr;

    energy::HarvesterConfig harvesterCfg;
    harvesterCfg.cellCount = config.harvesterCells;
    const energy::Harvester harvester(harvesterCfg);

    // --- Device + application -----------------------------------------
    app::DeviceProfile deviceProfile = app::deviceProfile(config.device);
    deviceProfile.checkpoint.policy = config.checkpointPolicy;
    deviceProfile.checkpoint.periodicInterval =
        config.checkpointIntervalTicks;

    core::SystemConfig systemCfg = config.system;
    systemCfg.captureHz = static_cast<double>(kTicksPerSecond) /
        static_cast<double>(config.sim.capturePeriod);
    if (faultInjector && config.faults.adc.active()) {
        // A hardware ADC defect corrupts every code the measurement
        // circuit produces (profile-time and runtime alike).
        systemCfg.circuit.adc.stuckHighMask =
            config.faults.adc.stuckHighMask;
        systemCfg.circuit.adc.stuckLowMask =
            config.faults.adc.stuckLowMask;
        systemCfg.circuit.adc.flipMask = config.faults.adc.flipMask;
        systemCfg.circuit.adc.saturateMax =
            config.faults.adc.saturateMax;
    }
    core::TaskSystem system(systemCfg);
    const app::ApplicationModel appModel =
        app::buildPersonDetectionApp(system, deviceProfile);

    // --- Controller -----------------------------------------------------
    const policy::ControllerRow &row = config.policyName.empty()
        ? policy::controllerRow(config.controller)
        : policy::policyRow(config.policyName);
    policy::PolicyOptions options;
    options.useCircuit = config.useCircuit;
    options.usePid = config.usePid;
    options.pidConfig = config.pid;
    options.bufferThreshold = config.bufferThreshold;
    options.powerThresholdFraction = config.powerThresholdFraction;
    options.datasheetMaxPower = harvester.datasheetMaxPower();
    options.powerTrace = &watts;
    auto controller = policy::makeController(row, options);

    // --- Simulation -----------------------------------------------------
    // Start from the caller's run-level knobs and derive the rest
    // (these derived fields are documented as ignored on input).
    SimulationConfig simCfg = config.sim;
    simCfg.infiniteBuffer = config.controller == ControllerKind::Ideal;
    simCfg.drainToEmpty = simCfg.infiniteBuffer;
    simCfg.outcomeSeed = config.seed ^ 0xc0ffee5ull;
    simCfg.schedulerPower = deviceProfile.mcu.activePower;
    simCfg.schedulerOverheadSeconds = 0.0;
    simCfg.schedulerOverheadEnergy = 0.0;
    simCfg.observer = nullptr;

    if (row.chargesOverhead) {
        // Charge the modeled invocation cost of Alg. 1 + Alg. 2 on
        // this MCU (section 5.1 cost model).
        const hw::McuModel mcu(deviceProfile.mcu);
        const auto strategy = config.useCircuit ?
            hw::RatioStrategy::QuetzalModule :
            (deviceProfile.mcu.hasHardwareDivider ?
             hw::RatioStrategy::HardwareDivider :
             hw::RatioStrategy::SoftwareDivision);
        const auto tasks =
            static_cast<std::uint32_t>(system.taskCount());
        const std::uint32_t options = 2; // per-task options registered
        simCfg.schedulerOverheadSeconds =
            mcu.secondsPerInvocation(strategy, tasks, options);
        simCfg.schedulerOverheadEnergy =
            mcu.ratioEnergyPerInvocation(strategy, tasks, options) +
            deviceProfile.mcu.activePower *
            simCfg.schedulerOverheadSeconds;
    }

    obs::Recorder recorder(config.obsLevel, config.obsSink);
    if (recorder.enabled()) {
        simCfg.observer = &recorder;
        controller->setObserver(&recorder);
    }
    if (faultInjector) {
        simCfg.faults = &*faultInjector;
        faultInjector->setObserver(
            recorder.enabled() ? &recorder : nullptr);
    }

    Simulator simulator(simCfg, deviceProfile, appModel, system,
                        *controller, watts, events);
    return simulator.run();
}

} // namespace sim
} // namespace quetzal
