/**
 * @file
 * Incumbent-equivalence and determinism differentials for the policy
 * layer.
 *
 *  - The "sjf-ibo" row of the controller table (--policy sjf-ibo)
 *    reproduces the Quetzal row (ControllerKind::Quetzal)
 *    byte-for-byte: identical metrics and an identical full-telemetry
 *    JSONL stream on fig09-, fig12- and fault_sweep-style
 *    configurations. The two rows must differ only in their label.
 *  - Every registered policy produces byte-identical telemetry
 *    across --jobs 1 / --jobs 4 ensemble execution.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_io.hpp"
#include "obs/trace_sink.hpp"
#include "policy/registry.hpp"
#include "sim/experiment.hpp"
#include "sim/runner.hpp"

namespace quetzal {
namespace policy {
namespace {

/** Serialize one run's full telemetry to a JSONL string. */
std::string
traceOf(sim::ExperimentConfig config)
{
    obs::VectorSink sink;
    config.obsLevel = obs::ObsLevel::Full;
    config.obsSink = &sink;
    (void)sim::runExperiment(config);
    std::ostringstream out;
    obs::writeJsonlHeader(out);
    obs::writeJsonl(out, sink.events(), 0);
    return out.str();
}

void
expectIdenticalMetrics(const sim::Metrics &a, const sim::Metrics &b)
{
    EXPECT_EQ(a.interestingDiscardedTotal(),
              b.interestingDiscardedTotal());
    EXPECT_EQ(a.iboDropsInteresting, b.iboDropsInteresting);
    EXPECT_EQ(a.iboDropsUninteresting, b.iboDropsUninteresting);
    EXPECT_EQ(a.txInterestingHq, b.txInterestingHq);
    EXPECT_EQ(a.txInterestingLq, b.txInterestingLq);
    EXPECT_EQ(a.jobsCompleted, b.jobsCompleted);
    EXPECT_EQ(a.degradedJobs, b.degradedJobs);
    EXPECT_EQ(a.powerFailures, b.powerFailures);
    EXPECT_EQ(a.deadlineMisses, b.deadlineMisses);
    EXPECT_EQ(a.energyWastedJoules, b.energyWastedJoules);
    EXPECT_EQ(a.simulatedTicks, b.simulatedTicks);
}

struct EquivalenceCase
{
    const char *name;
    sim::ExperimentConfig config;
};

/** Small-event variants of the committed scenario families. */
std::vector<EquivalenceCase>
equivalenceCases()
{
    std::vector<EquivalenceCase> cases;

    // fig09-style: the headline environment sweep cell.
    sim::ExperimentConfig fig09;
    fig09.environment = trace::EnvironmentPreset::Crowded;
    fig09.eventCount = 30;
    fig09.seed = 42;
    fig09.sim.bufferCapacity = 10;
    cases.push_back({"fig09", fig09});

    // fig12-style: MSP430 device, short environment, smaller buffer.
    sim::ExperimentConfig fig12;
    fig12.device = app::DeviceKind::Msp430;
    fig12.environment = trace::EnvironmentPreset::Msp430Short;
    fig12.eventCount = 30;
    fig12.seed = 5;
    fig12.sim.bufferCapacity = 6;
    cases.push_back({"fig12", fig12});

    // fault_sweep-style: power dropouts/spikes plus arrival bursts.
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
    cases.push_back({"fault_sweep", faulted});

    return cases;
}

TEST(PolicyEquivalence, SjfIboRowMatchesQuetzalRowExactly)
{
    const ControllerRow &quetzal = controllerRow(ControllerKind::Quetzal);
    const ControllerRow &sjfIbo = policyRow("sjf-ibo");
    EXPECT_EQ(sjfIbo.estimator, quetzal.estimator);
    EXPECT_EQ(sjfIbo.honoursPid, quetzal.honoursPid);
    EXPECT_EQ(sjfIbo.chargesOverhead, quetzal.chargesOverhead);

    for (const EquivalenceCase &c : equivalenceCases()) {
        SCOPED_TRACE(c.name);

        sim::ExperimentConfig byKind = c.config;
        byKind.controller = sim::ControllerKind::Quetzal;
        sim::ExperimentConfig byName = c.config;
        byName.policyName = "sjf-ibo";

        expectIdenticalMetrics(sim::runExperiment(byKind),
                               sim::runExperiment(byName));
        const std::string kindTrace = traceOf(byKind);
        ASSERT_FALSE(kindTrace.empty());
        EXPECT_EQ(kindTrace, traceOf(byName));
    }
}

TEST(PolicyEquivalence, EveryPolicyIsByteIdenticalAcrossJobCounts)
{
    // One run per registered policy, executed as an ensemble on one
    // worker and on four; the serialized streams must agree run for
    // run (the contract scripts/check_scenarios.sh enforces for the
    // committed tournament).
    const std::vector<std::string> &names = registeredPolicyNames();

    const auto traceAll = [&](unsigned jobs) {
        std::vector<obs::VectorSink> sinks(names.size());
        std::vector<sim::ExperimentConfig> configs;
        for (std::size_t i = 0; i < names.size(); ++i) {
            sim::ExperimentConfig config;
            config.policyName = names[i];
            config.eventCount = 30;
            config.seed = 42;
            config.sim.bufferCapacity = 8;
            config.obsLevel = obs::ObsLevel::Full;
            config.obsSink = &sinks[i];
            configs.push_back(std::move(config));
        }
        sim::ParallelRunner runner(jobs);
        (void)runner.runBatch(configs);
        std::vector<std::string> traces;
        for (std::size_t i = 0; i < sinks.size(); ++i) {
            std::ostringstream out;
            obs::writeJsonl(out, sinks[i].events(), i);
            traces.push_back(out.str());
        }
        return traces;
    };

    const std::vector<std::string> serial = traceAll(1);
    const std::vector<std::string> parallel = traceAll(4);
    ASSERT_EQ(serial.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        SCOPED_TRACE(names[i]);
        ASSERT_FALSE(serial[i].empty());
        EXPECT_EQ(serial[i], parallel[i]);
    }
}

} // namespace
} // namespace policy
} // namespace quetzal
