/**
 * @file
 * Per-controller golden: every ControllerKind and every registered
 * policy, run on the short fig09-, fig12- and fault_sweep-style
 * configurations, pinned by every Metrics field plus an FNV-1a 64
 * digest of the run's full-level JSONL trace. One line per
 * (configuration, controller) lives in
 * tests/policy/golden/controllers.txt; an intentional behaviour
 * change regenerates it with:
 *
 *   QUETZAL_REGEN_GOLDEN=1 ./test_policy --gtest_filter='ControllerGolden.*'
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_io.hpp"
#include "obs/trace_sink.hpp"
#include "policy/registry.hpp"
#include "sim/experiment.hpp"

#ifndef QUETZAL_POLICY_GOLDEN_DIR
#error "build must define QUETZAL_POLICY_GOLDEN_DIR"
#endif

namespace quetzal {
namespace policy {
namespace {

/** The three short configurations of test_equivalence.cpp. */
std::vector<std::pair<std::string, sim::ExperimentConfig>>
goldenConfigs()
{
    std::vector<std::pair<std::string, sim::ExperimentConfig>> configs;

    sim::ExperimentConfig fig09;
    fig09.environment = trace::EnvironmentPreset::Crowded;
    fig09.eventCount = 30;
    fig09.seed = 42;
    fig09.sim.bufferCapacity = 10;
    configs.emplace_back("fig09", fig09);

    sim::ExperimentConfig fig12;
    fig12.device = app::DeviceKind::Msp430;
    fig12.environment = trace::EnvironmentPreset::Msp430Short;
    fig12.eventCount = 30;
    fig12.seed = 5;
    fig12.sim.bufferCapacity = 6;
    configs.emplace_back("fig12", fig12);

    sim::ExperimentConfig faulted;
    faulted.environment = trace::EnvironmentPreset::Crowded;
    faulted.eventCount = 30;
    faulted.seed = 7;
    faulted.sim.bufferCapacity = 8;
    faulted.faults.seed = 11;
    faulted.faults.powerTrace.dropoutsPerHour = 12.0;
    faulted.faults.powerTrace.dropoutSeconds = 5.0;
    faulted.faults.powerTrace.spikesPerHour = 12.0;
    faulted.faults.powerTrace.spikeSeconds = 2.0;
    faulted.faults.powerTrace.spikeFactor = 3.0;
    faulted.faults.arrivals.burstsPerHour = 12.0;
    faulted.faults.arrivals.burstSeconds = 10.0;
    configs.emplace_back("fault_sweep", faulted);

    return configs;
}

/** Every controller: the eleven kinds, then the registered policies. */
std::vector<sim::ExperimentConfig>
controllerVariants(const sim::ExperimentConfig &base)
{
    const sim::ControllerKind kinds[] = {
        sim::ControllerKind::Quetzal,
        sim::ControllerKind::QuetzalFcfs,
        sim::ControllerKind::QuetzalLcfs,
        sim::ControllerKind::QuetzalAvgSe2e,
        sim::ControllerKind::NoAdapt,
        sim::ControllerKind::AlwaysDegrade,
        sim::ControllerKind::CatNap,
        sim::ControllerKind::BufferThreshold,
        sim::ControllerKind::Zgo,
        sim::ControllerKind::Zgi,
        sim::ControllerKind::Ideal,
    };
    std::vector<sim::ExperimentConfig> variants;
    for (const sim::ControllerKind kind : kinds) {
        sim::ExperimentConfig config = base;
        config.controller = kind;
        variants.push_back(config);
    }
    for (const std::string &name : registeredPolicyNames()) {
        sim::ExperimentConfig config = base;
        config.policyName = name;
        variants.push_back(config);
    }
    return variants;
}

std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
traceDigest(sim::ExperimentConfig config)
{
    obs::VectorSink sink;
    config.obsLevel = obs::ObsLevel::Full;
    config.obsSink = &sink;
    (void)sim::runExperiment(config);
    std::ostringstream out;
    obs::writeJsonlHeader(out);
    obs::writeJsonl(out, sink.events(), 0);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(out.str())));
    return hex;
}

void
putField(std::ostream &out, const char *key, std::uint64_t value)
{
    out << ' ' << key << '=' << value;
}

void
putField(std::ostream &out, const char *key, double value)
{
    char text[40];
    std::snprintf(text, sizeof text, "%.17g", value);
    out << ' ' << key << '=' << text;
}

void
putStats(std::ostream &out, const char *key, const util::RunningStats &s)
{
    const util::RunningStats::State st = s.exportState();
    const std::string prefix(key);
    putField(out, (prefix + ".n").c_str(),
             static_cast<std::uint64_t>(st.n));
    putField(out, (prefix + ".mean").c_str(), st.runningMean);
    putField(out, (prefix + ".m2").c_str(), st.m2);
    putField(out, (prefix + ".min").c_str(), st.minSample);
    putField(out, (prefix + ".max").c_str(), st.maxSample);
    putField(out, (prefix + ".sum").c_str(), st.total);
}

/** One golden line: label, every Metrics field, trace digest. */
std::string
goldenLine(const std::string &configName,
           const sim::ExperimentConfig &config)
{
    const sim::Metrics m = sim::runExperiment(config);
    std::ostringstream out;
    out << configName << ' ' << sim::experimentLabel(config);
    putField(out, "eventsTotal", m.eventsTotal);
    putField(out, "eventsInteresting", m.eventsInteresting);
    putField(out, "interestingInputsNominal", m.interestingInputsNominal);
    putField(out, "captures", m.captures);
    putField(out, "interestingCaptured", m.interestingCaptured);
    putField(out, "uninterestingCaptured", m.uninterestingCaptured);
    putField(out, "storedInputs", m.storedInputs);
    putField(out, "iboDropsInteresting", m.iboDropsInteresting);
    putField(out, "iboDropsUninteresting", m.iboDropsUninteresting);
    putField(out, "fnDiscards", m.fnDiscards);
    putField(out, "fpPositives", m.fpPositives);
    putField(out, "unprocessedInteresting", m.unprocessedInteresting);
    putField(out, "txInterestingHq", m.txInterestingHq);
    putField(out, "txInterestingLq", m.txInterestingLq);
    putField(out, "txUninterestingHq", m.txUninterestingHq);
    putField(out, "txUninterestingLq", m.txUninterestingLq);
    putField(out, "jobsCompleted", m.jobsCompleted);
    putField(out, "degradedJobs", m.degradedJobs);
    putField(out, "iboPredictions", m.iboPredictions);
    putField(out, "powerFailures", m.powerFailures);
    putField(out, "checkpointSaves", m.checkpointSaves);
    putField(out, "rechargeTicks", static_cast<std::uint64_t>(m.rechargeTicks));
    putField(out, "activeTicks", static_cast<std::uint64_t>(m.activeTicks));
    putField(out, "rolledBackTicks",
             static_cast<std::uint64_t>(m.rolledBackTicks));
    putField(out, "simulatedTicks",
             static_cast<std::uint64_t>(m.simulatedTicks));
    putField(out, "deadlineMisses", m.deadlineMisses);
    putField(out, "energyWastedJoules", m.energyWastedJoules);
    putField(out, "schedulerOverheadSeconds", m.schedulerOverheadSeconds);
    putField(out, "schedulerOverheadEnergy", m.schedulerOverheadEnergy);
    putField(out, "telemetryOverheadSeconds", m.telemetryOverheadSeconds);
    putField(out, "telemetryOverheadEnergy", m.telemetryOverheadEnergy);
    putStats(out, "jobService", m.jobServiceSeconds);
    putStats(out, "predictionError", m.predictionErrorSeconds);
    out << " trace=" << traceDigest(config) << '\n';
    return out.str();
}

std::string
goldenText()
{
    std::string text;
    for (const auto &[name, base] : goldenConfigs())
        for (const sim::ExperimentConfig &config : controllerVariants(base))
            text += goldenLine(name, config);
    return text;
}

TEST(ControllerGolden, EveryControllerMatchesCheckedInReference)
{
    const std::string path =
        std::string(QUETZAL_POLICY_GOLDEN_DIR) + "/controllers.txt";
    const std::string actual = goldenText();
    if (std::getenv("QUETZAL_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.is_open()) << path;
        out << actual;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.is_open())
        << path << " missing — regenerate with QUETZAL_REGEN_GOLDEN=1";
    std::ostringstream expected;
    expected << in.rdbuf();

    // Compare line by line so a drift names the controller.
    std::istringstream want(expected.str());
    std::istringstream got(actual);
    std::string wantLine;
    std::string gotLine;
    std::size_t lines = 0;
    while (std::getline(want, wantLine)) {
        ASSERT_TRUE(static_cast<bool>(std::getline(got, gotLine)))
            << "missing line: " << wantLine;
        EXPECT_EQ(gotLine, wantLine);
        ++lines;
    }
    EXPECT_FALSE(static_cast<bool>(std::getline(got, gotLine)))
        << "extra line: " << gotLine;
    EXPECT_EQ(lines, 3u * (11u + registeredPolicyNames().size()));
}

} // namespace
} // namespace policy
} // namespace quetzal
