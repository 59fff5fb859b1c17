/**
 * @file
 * QZCK state-blob golden: pins the exact bytes every checkpointed
 * component writes, across commits.
 *
 * The resume goldens only compare a straight run with a resumed one
 * on the same build, so a codec change that alters the blob layout on
 * both sides would pass them. This file hashes the blobs themselves.
 * Each line of tests/sim/golden/qzck_blobs.txt is either
 *
 *   sim <config> records=<n> bytes=<total> fnv1a=<hex>
 *
 * an FNV-1a 64 digest over every state blob a simulator run hands to
 * its checkpoint sink, in order, or
 *
 *   fleet barrier=<tick> bytes=<size> fnv1a=<hex>
 *
 * one fleet snapshot per coordinator barrier. The simulator configs
 * make every component write non-empty state: a faulted QZ run with
 * execution jitter and telemetry costs (FaultInjector, jitter RNG,
 * uncharged telemetry tail), QZ-AvgSe2e (the estimator history),
 * zygarde (the policy's overflow pressure) and the Periodic
 * checkpoint policy (the device's uncheckpointed-progress fields).
 * The fleet runs four policies on two shards. An intentional format
 * change regenerates the file with:
 *
 *   QUETZAL_REGEN_GOLDEN=1 ./test_sim \
 *       --gtest_filter='CheckpointBlobGolden.*'
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fleet/fleet.hpp"
#include "sim/experiment.hpp"

#ifndef QUETZAL_SIM_GOLDEN_DIR
#error "build must define QUETZAL_SIM_GOLDEN_DIR"
#endif

namespace quetzal {
namespace sim {
namespace {

class Fnv1a
{
  public:
    void
    update(const std::string &bytes)
    {
        for (const char c : bytes) {
            hash ^= static_cast<unsigned char>(c);
            hash *= 0x100000001b3ull;
        }
    }

    std::string
    hex() const
    {
        char text[17];
        std::snprintf(text, sizeof text, "%016llx",
                      static_cast<unsigned long long>(hash));
        return text;
    }

  private:
    std::uint64_t hash = 0xcbf29ce484222325ull;
};

ExperimentConfig
smallRun(std::uint64_t seed)
{
    ExperimentConfig config;
    config.eventCount = 120;
    config.seed = seed;
    config.sim.drainTicks = 60 * kTicksPerSecond;
    return config;
}

std::vector<std::pair<std::string, ExperimentConfig>>
simConfigs()
{
    std::vector<std::pair<std::string, ExperimentConfig>> configs;

    ExperimentConfig faulted = smallRun(7);
    faulted.faults.seed = 11;
    faulted.faults.measurement.biasWatts = 0.002;
    faulted.faults.measurement.noiseSigma = 0.1;
    faulted.faults.powerTrace.dropoutsPerHour = 40.0;
    faulted.faults.powerTrace.dropoutSeconds = 2.0;
    faulted.faults.arrivals.burstsPerHour = 30.0;
    faulted.faults.arrivals.burstSeconds = 3.0;
    faulted.faults.arrivals.captureJitterMs = 120;
    faulted.faults.execution.overrunProbability = 0.2;
    faulted.faults.execution.overrunFactor = 1.8;
    faulted.sim.executionJitterSigma = 0.2;
    faulted.sim.telemetrySecondsPerEvent = 1e-6;
    faulted.sim.telemetryEnergyPerEvent = 2e-8;
    faulted.obsLevel = obs::ObsLevel::Full;
    configs.emplace_back("qz-faulted", faulted);

    ExperimentConfig avg = smallRun(42);
    avg.controller = ControllerKind::QuetzalAvgSe2e;
    configs.emplace_back("qz-avgse2e", avg);

    ExperimentConfig zygarde = smallRun(42);
    zygarde.policyName = "zygarde";
    configs.emplace_back("zygarde", zygarde);

    ExperimentConfig periodic = smallRun(5);
    periodic.checkpointPolicy = app::CheckpointPolicy::Periodic;
    configs.emplace_back("qz-periodic", periodic);

    return configs;
}

std::string
simLine(const std::string &name, ExperimentConfig config)
{
    std::vector<std::string> blobs;
    config.sim.checkpointEveryCaptures = 20;
    config.sim.checkpointSink = [&blobs](std::string &&state, Tick) {
        blobs.push_back(std::move(state));
    };
    (void)runExperiment(config);

    Fnv1a hash;
    std::size_t bytes = 0;
    for (const std::string &blob : blobs) {
        hash.update(blob);
        bytes += blob.size();
    }
    std::ostringstream line;
    line << "sim " << name << " records=" << blobs.size()
         << " bytes=" << bytes << " fnv1a=" << hash.hex();
    return line.str();
}

std::vector<std::string>
fleetLines()
{
    fleet::FleetConfig config;
    config.shards = 2;
    config.slabTicks = 600 * kTicksPerSecond;
    config.horizonTicks = 3600 * kTicksPerSecond;
    config.rollupTicks = 1800 * kTicksPerSecond;
    for (const char *policy :
         {"sjf-ibo", "greedy-fcfs", "zygarde", "delgado-famaey"}) {
        fleet::CohortConfig cohort;
        cohort.name = policy;
        cohort.policy = policy;
        cohort.devices = 24;
        cohort.seed = 11;
        cohort.harvesterCells = 1;
        cohort.capturePeriod = 60 * kTicksPerSecond;
        cohort.bufferCapacity = 4;
        cohort.taskTicks = 90 * kTicksPerSecond;
        config.cohorts.push_back(cohort);
    }

    std::vector<std::string> lines;
    fleet::FleetOptions options;
    options.jobs = 2;
    options.checkpointSink = [&lines](const std::string &state,
                                      Tick tick) {
        Fnv1a hash;
        hash.update(state);
        std::ostringstream line;
        line << "fleet barrier=" << tick << " bytes=" << state.size()
             << " fnv1a=" << hash.hex();
        lines.push_back(line.str());
    };
    (void)fleet::runFleet(config, options);
    return lines;
}

std::string
goldenPath()
{
    return std::string(QUETZAL_SIM_GOLDEN_DIR) + "/qzck_blobs.txt";
}

TEST(CheckpointBlobGolden, EveryBlobMatchesCommittedDigest)
{
    std::vector<std::string> lines;
    for (const auto &[name, config] : simConfigs())
        lines.push_back(simLine(name, config));
    for (std::string &line : fleetLines())
        lines.push_back(std::move(line));

    const std::string path = goldenPath();
    if (std::getenv("QUETZAL_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        for (const std::string &line : lines)
            out << line << '\n';
        ASSERT_TRUE(out.good());
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << path
        << " missing — regenerate with QUETZAL_REGEN_GOLDEN=1";
    std::vector<std::string> golden;
    for (std::string line; std::getline(in, line);)
        golden.push_back(line);

    ASSERT_EQ(golden.size(), lines.size())
        << "the golden lists a different set of configs and barriers";
    for (std::size_t i = 0; i < lines.size(); ++i) {
        EXPECT_EQ(golden[i], lines[i])
            << "checkpoint bytes drifted from " << path << " line "
            << i + 1;
    }
}

} // namespace
} // namespace sim
} // namespace quetzal
