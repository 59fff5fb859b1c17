/**
 * @file
 * Tests for the Controller glue: selection pipeline, feedback loops,
 * PID wiring and statistics.
 */

#include <gtest/gtest.h>

#include "core/runtime.hpp"
#include "core_test_fixtures.hpp"
#include "policy/registry.hpp"

namespace quetzal {
namespace core {
namespace {

using testing_fixtures::makeSmallSystem;
using testing_fixtures::pushInput;

/** The paper's Quetzal row of the controller table. */
std::unique_ptr<Controller>
makeQuetzal(const policy::PolicyOptions &options = {})
{
    return policy::makeController(policy::ControllerKind::Quetzal,
                                  options);
}

TEST(Controller, QuetzalFactoryAssemblesPieces)
{
    auto controller = makeQuetzal();
    EXPECT_EQ(controller->name(), "QZ");
    EXPECT_EQ(controller->policy().name(), "sjf-ibo");
    EXPECT_EQ(controller->estimator().name(), "energy-aware(circuit)");
    EXPECT_EQ(controller->pidCorrection(), 0.0);
}

TEST(Controller, SelectReturnsNothingOnEmptyBuffer)
{
    auto s = makeSmallSystem();
    auto controller = makeQuetzal();
    queueing::InputBuffer buffer(10);
    EXPECT_FALSE(
        controller->selectJob(*s.system, buffer, 10e-3).has_value());
}

TEST(Controller, SelectionCarriesOptions)
{
    auto s = makeSmallSystem();
    policy::PolicyOptions options;
    options.useCircuit = false;
    auto controller = makeQuetzal(options);
    queueing::InputBuffer buffer(10);
    pushInput(buffer, s, 1, 0, s.classifyJob);
    const auto selection =
        controller->selectJob(*s.system, buffer, 1.0);
    ASSERT_TRUE(selection.has_value());
    EXPECT_EQ(selection->jobId, s.classifyJob);
    ASSERT_EQ(selection->optionPerTask.size(), 1u);
    EXPECT_GT(selection->predictedServiceSeconds, 0.0);
}

TEST(Controller, CompletionFeedsProbabilityTrackers)
{
    auto s = makeSmallSystem();
    auto controller = makeQuetzal();
    queueing::InputBuffer buffer(10);
    pushInput(buffer, s, 1, 0, s.classifyJob);
    const auto selection =
        controller->selectJob(*s.system, buffer, 10e-3);
    ASSERT_TRUE(selection.has_value());
    controller->onJobComplete(*s.system, *selection, {false}, 1.0);
    EXPECT_DOUBLE_EQ(s.system->executionProbability(s.mlTask), 0.0);
    EXPECT_EQ(controller->stats().jobsCompleted, 1u);
}

TEST(Controller, PidRespondsToPredictionError)
{
    auto s = makeSmallSystem();
    policy::PolicyOptions options;
    options.useCircuit = false;
    // Crank the gains so the effect is visible in a couple of steps.
    options.pidConfig.kp = 0.5;
    options.pidConfig.ki = 0.0;
    options.pidConfig.kd = 0.0;
    auto controller = makeQuetzal(options);

    queueing::InputBuffer buffer(10);
    pushInput(buffer, s, 1, 0, s.classifyJob);
    const auto selection =
        controller->selectJob(*s.system, buffer, 1.0);
    ASSERT_TRUE(selection.has_value());
    // Job took 10 s longer than predicted: the correction inflates.
    controller->onJobComplete(
        *s.system, *selection, {true},
        selection->predictedServiceSeconds + 10.0);
    EXPECT_NEAR(controller->pidCorrection(), 5.0, 1e-9);
    EXPECT_EQ(controller->stats().predictionError.count(), 1u);
    EXPECT_NEAR(controller->stats().predictionError.mean(), 10.0,
                1e-9);
}

TEST(Controller, NoPidMeansZeroCorrection)
{
    auto s = makeSmallSystem();
    policy::PolicyOptions options;
    options.usePid = false;
    auto controller = makeQuetzal(options);
    queueing::InputBuffer buffer(10);
    pushInput(buffer, s, 1, 0, s.classifyJob);
    const auto selection =
        controller->selectJob(*s.system, buffer, 10e-3);
    ASSERT_TRUE(selection.has_value());
    controller->onJobComplete(*s.system, *selection, {true}, 100.0);
    EXPECT_EQ(controller->pidCorrection(), 0.0);
}

TEST(Controller, TaskObservationsFeedAverageEstimator)
{
    auto s = makeSmallSystem();
    auto controller = std::make_unique<Controller>(
        "avg", policy::makePolicy("sjf-ibo"),
        std::make_unique<AverageServiceTimeEstimator>());
    controller->onTaskComplete(*s.system, s.mlTask, 0, 7.0);
    // The average estimator answers with the observed mean.
    EXPECT_DOUBLE_EQ(controller->estimator().estimate(
                         s.system->task(s.mlTask).option(0), {1e-3, 0}),
                     7.0);
}

TEST(Controller, DegradationCountsInStats)
{
    auto s = makeSmallSystem();
    policy::PolicyOptions options;
    options.useCircuit = false;
    options.usePid = false;
    auto controller = makeQuetzal(options);
    // High lambda + heavy transmit backlog at low power: must degrade.
    for (int i = 0; i < 64; ++i)
        s.system->recordCapture(true);
    queueing::InputBuffer buffer(10);
    for (std::uint64_t i = 0; i < 4; ++i)
        pushInput(buffer, s, i, 0, s.transmitJob);
    const auto selection =
        controller->selectJob(*s.system, buffer, 10e-3);
    ASSERT_TRUE(selection.has_value());
    EXPECT_TRUE(selection->degraded);
    EXPECT_EQ(controller->stats().degradedJobs, 1u);
    EXPECT_EQ(controller->stats().iboPredictions, 1u);
}

TEST(ControllerDeathTest, MissingCollaboratorsFatal)
{
    EXPECT_EXIT(Controller("broken", nullptr, nullptr),
                ::testing::ExitedWithCode(1), "requires");
}

} // namespace
} // namespace core
} // namespace quetzal
