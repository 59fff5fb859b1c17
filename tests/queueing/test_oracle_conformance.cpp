/**
 * @file
 * Conformance tests for the M/D/1/K queueing oracle: the closed-form
 * prediction (embedded-chain algebra, DESIGN.md section 12.4) is
 * checked against seeded event-driven simulations over the *real*
 * queueing::InputBuffer, across a (lambda, E[S], K) grid and both
 * service orders. Known closed forms (Erlang loss at K=1, light and
 * saturated limits) pin the algebra independently of the simulation.
 */

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "support/oracle.hpp"

namespace quetzal {
namespace queueing {
namespace {

/** One grid cell of the conformance sweep. */
struct GridCase
{
    double lambda;
    double service;
    std::size_t capacity;
};

class OracleConformance : public ::testing::TestWithParam<GridCase>
{
  protected:
    static QueueSimConfig
    simConfig(const GridCase &cell, QueueDiscipline discipline)
    {
        QueueSimConfig cfg;
        cfg.model.arrivalsPerSecond = cell.lambda;
        cfg.model.serviceSeconds = cell.service;
        cfg.model.capacity = cell.capacity;
        cfg.discipline = discipline;
        cfg.seed = 0x0c0ffee5u + cell.capacity;
        cfg.horizonSeconds = 200000.0 * cell.service;
        cfg.warmupSeconds = 500.0 * cell.service;
        return cfg;
    }
};

TEST_P(OracleConformance, PredictionMatchesFcfsSimulation)
{
    const GridCase cell = GetParam();
    OracleInput in;
    in.arrivalsPerSecond = cell.lambda;
    in.serviceSeconds = cell.service;
    in.capacity = cell.capacity;
    const OraclePrediction pred = predictOccupancy(in);
    const QueueSimResult sim =
        simulateQueue(simConfig(cell, QueueDiscipline::Fcfs));

    EXPECT_NEAR(sim.meanOccupancy, pred.expectedOccupancy,
                std::max(0.05, 0.03 * pred.expectedOccupancy));
    EXPECT_NEAR(sim.dropFraction, pred.blockingProbability,
                std::max(0.004, 0.05 * pred.blockingProbability));
    if (sim.served > 0) {
        EXPECT_NEAR(sim.meanSojournSeconds, pred.expectedSojournSeconds,
                    std::max(0.05 * cell.service,
                             0.05 * pred.expectedSojournSeconds));
    }
}

TEST_P(OracleConformance, OccupancyDistributionMatchesTimeShares)
{
    const GridCase cell = GetParam();
    OracleInput in;
    in.arrivalsPerSecond = cell.lambda;
    in.serviceSeconds = cell.service;
    in.capacity = cell.capacity;
    const OraclePrediction pred = predictOccupancy(in);
    const QueueSimResult sim =
        simulateQueue(simConfig(cell, QueueDiscipline::Fcfs));

    ASSERT_EQ(pred.occupancyDistribution.size(), cell.capacity + 1);
    ASSERT_EQ(sim.occupancyTimeFraction.size(), cell.capacity + 1);
    for (std::size_t j = 0; j <= cell.capacity; ++j) {
        ASSERT_NEAR(sim.occupancyTimeFraction[j],
                    pred.occupancyDistribution[j], 0.02)
            << "occupancy " << j;
    }
}

TEST_P(OracleConformance, LcfsOccupancyLawEqualsFcfs)
{
    // Service order cannot change the queue-length process when the
    // server never idles with work present and services are iid —
    // with the same seed (same arrival draws) the occupancy path is
    // *identical*, not merely statistically equal.
    const GridCase cell = GetParam();
    const QueueSimResult fcfs =
        simulateQueue(simConfig(cell, QueueDiscipline::Fcfs));
    const QueueSimResult lcfs =
        simulateQueue(simConfig(cell, QueueDiscipline::Lcfs));

    EXPECT_EQ(fcfs.arrivals, lcfs.arrivals);
    EXPECT_EQ(fcfs.drops, lcfs.drops);
    EXPECT_EQ(fcfs.served, lcfs.served);
    EXPECT_DOUBLE_EQ(fcfs.meanOccupancy, lcfs.meanOccupancy);
    for (std::size_t j = 0; j <= cell.capacity; ++j)
        ASSERT_DOUBLE_EQ(fcfs.occupancyTimeFraction[j],
                         lcfs.occupancyTimeFraction[j])
            << "occupancy " << j;
}

TEST_P(OracleConformance, LittlesLawHoldsInSimulation)
{
    const GridCase cell = GetParam();
    const QueueSimResult sim =
        simulateQueue(simConfig(cell, QueueDiscipline::Fcfs));
    if (sim.served == 0)
        GTEST_SKIP() << "no departures measured";
    const double effLambda =
        cell.lambda * (1.0 - sim.dropFraction);
    // L = lambda_eff * W, measured entirely from the simulation.
    EXPECT_NEAR(sim.meanOccupancy,
                effLambda * sim.meanSojournSeconds,
                0.03 * std::max(1.0, sim.meanOccupancy));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OracleConformance,
    ::testing::Values(GridCase{0.3, 1.0, 1}, GridCase{0.3, 1.0, 3},
                      GridCase{0.3, 1.0, 10}, GridCase{0.8, 1.0, 3},
                      GridCase{0.8, 1.0, 10}, GridCase{0.8, 2.5, 10},
                      GridCase{1.0, 1.0, 10}, GridCase{1.3, 1.0, 3},
                      GridCase{1.3, 1.0, 10}, GridCase{2.5, 1.0, 10},
                      GridCase{0.05, 1.0, 5}, GridCase{5.0, 0.5, 6}));

TEST(OracleClosedForms, ErlangLossAtCapacityOne)
{
    // M/D/1/1 is an Erlang loss system: P_block = rho / (1 + rho),
    // independent of the service distribution.
    for (const double rho : {0.1, 0.5, 1.0, 3.0, 20.0}) {
        OracleInput in;
        in.arrivalsPerSecond = rho;
        in.serviceSeconds = 1.0;
        in.capacity = 1;
        const OraclePrediction pred = predictOccupancy(in);
        EXPECT_NEAR(pred.blockingProbability, rho / (1.0 + rho), 1e-9)
            << "rho " << rho;
        EXPECT_NEAR(pred.expectedOccupancy, rho / (1.0 + rho), 1e-9)
            << "rho " << rho;
    }
}

TEST(OracleClosedForms, DistributionIsNormalized)
{
    for (const double rho : {0.2, 0.9, 1.5, 10.0, 60.0}) {
        OracleInput in;
        in.arrivalsPerSecond = rho;
        in.serviceSeconds = 1.0;
        in.capacity = 8;
        const OraclePrediction pred = predictOccupancy(in);
        const double total = std::accumulate(
            pred.occupancyDistribution.begin(),
            pred.occupancyDistribution.end(), 0.0);
        EXPECT_NEAR(total, 1.0, 1e-9) << "rho " << rho;
        for (const double p : pred.occupancyDistribution)
            ASSERT_GE(p, 0.0) << "rho " << rho;
    }
}

TEST(OracleClosedForms, LightLoadApproachesOpenQueue)
{
    // With a huge buffer and tiny load, blocking vanishes and the
    // occupancy approaches the M/D/1 value rho + rho^2/(2(1-rho)).
    OracleInput in;
    in.arrivalsPerSecond = 0.2;
    in.serviceSeconds = 1.0;
    in.capacity = 50;
    const OraclePrediction pred = predictOccupancy(in);
    const double rho = 0.2;
    EXPECT_LT(pred.blockingProbability, 1e-12);
    EXPECT_NEAR(pred.expectedOccupancy,
                rho + rho * rho / (2.0 * (1.0 - rho)), 1e-6);
}

TEST(OracleClosedForms, BlockingMonotoneInLoad)
{
    double previous = -1.0;
    for (double rho = 0.1; rho <= 6.0; rho += 0.1) {
        OracleInput in;
        in.arrivalsPerSecond = rho;
        in.serviceSeconds = 1.0;
        in.capacity = 10;
        const double blocking =
            predictOccupancy(in).blockingProbability;
        ASSERT_GT(blocking, previous - 1e-12) << "rho " << rho;
        previous = blocking;
    }
}

TEST(OracleClosedForms, BlockingMonotoneDecreasingInCapacity)
{
    double previous = 2.0;
    for (std::size_t k = 1; k <= 20; ++k) {
        OracleInput in;
        in.arrivalsPerSecond = 0.9;
        in.serviceSeconds = 1.0;
        in.capacity = k;
        const double blocking =
            predictOccupancy(in).blockingProbability;
        ASSERT_LT(blocking, previous + 1e-12) << "capacity " << k;
        previous = blocking;
    }
}

TEST(OracleClosedForms, SaturatedBranchIsContinuous)
{
    // The rho > 50 closed form must join the solved algebra smoothly.
    OracleInput in;
    in.serviceSeconds = 1.0;
    in.capacity = 6;
    in.arrivalsPerSecond = 49.9;
    const OraclePrediction below = predictOccupancy(in);
    in.arrivalsPerSecond = 50.1;
    const OraclePrediction above = predictOccupancy(in);
    EXPECT_NEAR(below.blockingProbability, above.blockingProbability,
                1e-4);
    EXPECT_NEAR(below.expectedOccupancy, above.expectedOccupancy,
                1e-3);
    EXPECT_NEAR(below.effectiveThroughput, above.effectiveThroughput,
                1e-3);
}

TEST(OracleClosedForms, SojournAtLeastOneService)
{
    for (const double rho : {0.1, 1.0, 4.0}) {
        OracleInput in;
        in.arrivalsPerSecond = rho;
        in.serviceSeconds = 2.0;
        in.capacity = 10;
        EXPECT_GE(predictOccupancy(in).expectedSojournSeconds,
                  2.0 - 1e-9)
            << "rho " << rho;
    }
}

TEST(OracleClosedForms, ThroughputNeverExceedsServiceRate)
{
    for (const double lambda : {0.5, 1.0, 2.0, 100.0}) {
        OracleInput in;
        in.arrivalsPerSecond = lambda;
        in.serviceSeconds = 0.5;
        in.capacity = 4;
        const OraclePrediction pred = predictOccupancy(in);
        EXPECT_LE(pred.effectiveThroughput, 2.0 + 1e-9)
            << "lambda " << lambda;
        EXPECT_LE(pred.effectiveThroughput, lambda + 1e-9)
            << "lambda " << lambda;
    }
}

TEST(OracleValidation, RejectsDegenerateInputs)
{
    OracleInput in;
    in.arrivalsPerSecond = 0.0;
    EXPECT_DEATH(predictOccupancy(in), "positive");
    in.arrivalsPerSecond = 1.0;
    in.serviceSeconds = -1.0;
    EXPECT_DEATH(predictOccupancy(in), "positive");
    in.serviceSeconds = 1.0;
    in.capacity = 0;
    EXPECT_DEATH(predictOccupancy(in), "capacity");
}

TEST(OracleValidation, SimulationRejectsDegenerateSpans)
{
    QueueSimConfig cfg;
    cfg.horizonSeconds = 0.0;
    EXPECT_DEATH(simulateQueue(cfg), "span");
    cfg.horizonSeconds = 10.0;
    cfg.warmupSeconds = -1.0;
    EXPECT_DEATH(simulateQueue(cfg), "span");
}

TEST(OracleSimulation, DeterministicForEqualSeeds)
{
    QueueSimConfig cfg;
    cfg.model.arrivalsPerSecond = 0.9;
    cfg.model.serviceSeconds = 1.0;
    cfg.model.capacity = 5;
    cfg.horizonSeconds = 5000.0;
    cfg.seed = 77;
    const QueueSimResult a = simulateQueue(cfg);
    const QueueSimResult b = simulateQueue(cfg);
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.drops, b.drops);
    EXPECT_DOUBLE_EQ(a.meanOccupancy, b.meanOccupancy);
    EXPECT_DOUBLE_EQ(a.meanSojournSeconds, b.meanSojournSeconds);

    cfg.seed = 78;
    const QueueSimResult c = simulateQueue(cfg);
    EXPECT_FALSE(a.arrivals == c.arrivals &&
                 a.meanOccupancy == c.meanOccupancy);
}

} // namespace
} // namespace queueing
} // namespace quetzal
