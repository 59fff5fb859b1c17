/**
 * @file
 * Randomized property sweep over the whole stack: many small random
 * experiment configurations, each checked against the invariants that
 * must hold for *any* configuration — input conservation, counter
 * consistency, determinism, and the umbrella header compiling the
 * public API (this file includes it).
 */

#include <gtest/gtest.h>

#include "quetzal.hpp"
#include "support/random.hpp"
#include "util/random.hpp"

namespace quetzal {
namespace sim {
namespace {

ExperimentConfig
randomConfig(util::Rng &rng)
{
    static const ControllerKind kinds[] = {
        ControllerKind::Quetzal,       ControllerKind::QuetzalFcfs,
        ControllerKind::QuetzalLcfs,   ControllerKind::QuetzalAvgSe2e,
        ControllerKind::NoAdapt,       ControllerKind::AlwaysDegrade,
        ControllerKind::CatNap,        ControllerKind::BufferThreshold,
        ControllerKind::Zgo,           ControllerKind::Zgi,
    };
    static const trace::EnvironmentPreset envs[] = {
        trace::EnvironmentPreset::MoreCrowded,
        trace::EnvironmentPreset::Crowded,
        trace::EnvironmentPreset::LessCrowded,
        trace::EnvironmentPreset::Msp430Short,
    };

    ExperimentConfig cfg;
    cfg.controller = kinds[rng.uniformInt(0, 9)];
    cfg.environment = envs[rng.uniformInt(0, 3)];
    cfg.device = rng.bernoulli(0.3) ? app::DeviceKind::Msp430
                                    : app::DeviceKind::Apollo4;
    cfg.eventCount = static_cast<std::size_t>(rng.uniformInt(20, 80));
    cfg.seed = static_cast<std::uint64_t>(rng.uniformInt(1, 1 << 20));
    cfg.sim.bufferCapacity =
        static_cast<std::size_t>(rng.uniformInt(2, 24));
    cfg.harvesterCells = static_cast<int>(rng.uniformInt(1, 12));
    cfg.sim.capturePeriod = rng.uniformInt(1, 4) * 1000;
    cfg.bufferThreshold = uniformIn(rng, 0.05, 1.0);
    cfg.system.taskWindow = 1u << rng.uniformInt(3, 8);
    cfg.system.arrivalWindow = 1u << rng.uniformInt(4, 9);
    cfg.usePid = rng.bernoulli(0.8);
    cfg.useCircuit = rng.bernoulli(0.8);
    cfg.sim.executionJitterSigma = rng.bernoulli(0.3) ? 0.2 : 0.0;
    if (rng.bernoulli(0.3)) {
        cfg.checkpointPolicy = app::CheckpointPolicy::Periodic;
        cfg.checkpointIntervalTicks = rng.uniformInt(100, 2000);
    }
    return cfg;
}

class RandomConfigProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomConfigProperty, InvariantsHold)
{
    util::Rng rng(GetParam() * 7919 + 13);
    for (int round = 0; round < 3; ++round) {
        const ExperimentConfig cfg = randomConfig(rng);
        const Metrics m = runExperiment(cfg);

        // Every interesting capture is accounted exactly once.
        ASSERT_EQ(m.interestingCaptured,
                  m.iboDropsInteresting + m.fnDiscards +
                      m.txInterestingHq + m.txInterestingLq +
                      m.unprocessedInteresting)
            << controllerKindName(cfg.controller);

        // Captures bound everything downstream.
        ASSERT_LE(m.storedInputs, m.captures);
        ASSERT_LE(m.interestingCaptured, m.interestingInputsNominal);

        // Counter consistency.
        ASSERT_LE(m.degradedJobs, m.jobsCompleted);
        ASSERT_LE(m.fnDiscards + m.txInterestingHq + m.txInterestingLq,
                  m.jobsCompleted);
        ASSERT_LE(m.activeTicks + m.rechargeTicks,
                  static_cast<Tick>(4 * m.simulatedTicks));
        ASSERT_GT(m.simulatedTicks, 0);

        // Percentages are sane.
        ASSERT_GE(m.interestingDiscardedPct(), 0.0);
        ASSERT_LE(m.interestingDiscardedPct(), 100.0 + 1e-9);
        ASSERT_GE(m.highQualityShare(), 0.0);
        ASSERT_LE(m.highQualityShare(), 1.0);

        // JIT never rolls back; Periodic saves at least per failure
        // recovery when any occurred.
        if (cfg.checkpointPolicy == app::CheckpointPolicy::JustInTime) {
            ASSERT_EQ(m.rolledBackTicks, 0);
            ASSERT_EQ(m.checkpointSaves, m.powerFailures);
        }

        // Determinism: the identical configuration reproduces.
        const Metrics again = runExperiment(cfg);
        ASSERT_EQ(again.interestingDiscardedTotal(),
                  m.interestingDiscardedTotal());
        ASSERT_EQ(again.jobsCompleted, m.jobsCompleted);
        ASSERT_EQ(again.powerFailures, m.powerFailures);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomConfigProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

} // namespace
} // namespace sim
} // namespace quetzal
