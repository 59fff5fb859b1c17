/**
 * @file
 * Tests for TaskSystem registration, tracking and E[S] computation.
 */

#include <gtest/gtest.h>

#include "core/scheduler.hpp"
#include "core_test_fixtures.hpp"

namespace quetzal {
namespace core {
namespace {

using testing_fixtures::makeSmallSystem;

/** E[S] of a job as one scheduling round derives it. */
double
roundService(const TaskSystem &system, const Job &job,
             const ServiceTimeEstimator &estimator,
             const PowerReading &power, const OptionVec &options = {})
{
    return ServiceTerms(system, estimator, power).jobService(job, options);
}

TEST(TaskSystem, RegistersTasksAndJobs)
{
    auto s = makeSmallSystem();
    EXPECT_EQ(s.system->taskCount(), 2u);
    EXPECT_EQ(s.system->jobCount(), 2u);
    const Job &classify = s.system->job(s.classifyJob);
    EXPECT_EQ(classify.tasks.size(), 1u);
    ASSERT_TRUE(classify.degradableIndex.has_value());
    EXPECT_EQ(*classify.degradableIndex, 0u);
    ASSERT_TRUE(classify.onPositive.has_value());
    EXPECT_EQ(*classify.onPositive, s.transmitJob);
}

TEST(TaskSystem, ProfilesOptionsThroughCircuit)
{
    auto s = makeSmallSystem();
    const Task &radio = s.system->task(s.radioTask);
    // Higher power options get higher diode codes.
    EXPECT_GT(radio.option(0).hwProfile.execCode, 0);
    const Task &ml = s.system->task(s.mlTask);
    EXPECT_GT(radio.option(0).hwProfile.execCode,
              ml.option(1).hwProfile.execCode);
    // Premult tables are filled.
    EXPECT_EQ(ml.option(0).hwProfile.premultTicks[0], 1000u);
}

TEST(TaskSystem, ArrivalTrackingWithSpawns)
{
    auto s = makeSmallSystem();
    for (int i = 0; i < 8; ++i) {
        s.system->recordCapture(true);
        if (i % 2 == 0)
            s.system->recordSpawn();
    }
    EXPECT_NEAR(s.system->arrivalsPerSecond(), 1.5, 1e-12);
}

TEST(TaskSystem, ExecutionProbabilityConditionalOnJob)
{
    auto s = makeSmallSystem();
    const Job &classify = s.system->job(s.classifyJob);
    // classify completes 4 times, ml ran each time.
    for (int i = 0; i < 4; ++i)
        s.system->recordJobCompletion(classify, {true});
    EXPECT_DOUBLE_EQ(s.system->executionProbability(s.mlTask), 1.0);
    // The radio task was never part of those completions: its
    // probability stays at the conservative default.
    EXPECT_DOUBLE_EQ(s.system->executionProbability(s.radioTask), 1.0);
    // A skipped execution dilutes the estimate.
    s.system->recordJobCompletion(classify, {false});
    EXPECT_DOUBLE_EQ(s.system->executionProbability(s.mlTask), 0.8);
}

TEST(TaskSystem, MeasureInputPowerProducesCodeAndWatts)
{
    auto s = makeSmallSystem();
    const PowerReading low = s.system->measureInputPower(1e-3);
    const PowerReading high = s.system->measureInputPower(50e-3);
    EXPECT_DOUBLE_EQ(low.watts, 1e-3);
    EXPECT_DOUBLE_EQ(high.watts, 50e-3);
    EXPECT_GT(high.code, low.code);
}

TEST(TaskSystem, ExpectedJobServiceWeightsByProbability)
{
    auto s = makeSmallSystem();
    EnergyAwareEstimator exact(false);
    const PowerReading power{1.0, 255}; // 1 W: compute bound
    const Job &classify = s.system->job(s.classifyJob);

    // Probability defaults to 1.0: E[S] = ml-high latency = 1 s.
    EXPECT_NEAR(roundService(*s.system, classify, exact, power),
                1.0, 1e-9);

    // Dilute ml probability to 0.5.
    for (int i = 0; i < 2; ++i)
        s.system->recordJobCompletion(classify, {i == 0});
    EXPECT_NEAR(roundService(*s.system, classify, exact, power),
                0.5, 1e-9);

    // Option override: ml-low latency = 0.1 s, weighted 0.5.
    EXPECT_NEAR(roundService(*s.system, classify, exact, power, {1}),
                0.05, 1e-9);
}

TEST(TaskSystem, ExpectedJobServiceScalesWithPower)
{
    auto s = makeSmallSystem();
    EnergyAwareEstimator exact(false);
    const Job &transmit = s.system->job(s.transmitJob);
    // radio-high: 0.8 s, 80 mJ. At 8 mW input: 10 s energy-bound.
    const PowerReading low{8e-3, 0};
    EXPECT_NEAR(roundService(*s.system, transmit, exact, low),
                10.0, 1e-9);
    // At 200 mW: compute bound, 0.8 s.
    const PowerReading high{200e-3, 0};
    EXPECT_NEAR(roundService(*s.system, transmit, exact, high),
                0.8, 1e-9);
}

TEST(TaskSystemDeathTest, RegistrationValidation)
{
    auto s = makeSmallSystem();
    EXPECT_EXIT(s.system->addJob("bad", {}),
                ::testing::ExitedWithCode(1), "needs tasks");
    EXPECT_EXIT(s.system->addJob("bad", {99}),
                ::testing::ExitedWithCode(1), "unknown");
    // Two degradable tasks in one job violate the paper's constraint.
    EXPECT_EXIT(s.system->addJob("bad", {s.mlTask, s.radioTask}),
                ::testing::ExitedWithCode(1), "more than");
}

TEST(TaskSystemDeathTest, TaskLimitEnforced)
{
    TaskSystem system;
    for (std::size_t i = 0; i < kMaxTasks; ++i)
        system.addTask("t", {{"o", 10, 1e-3}});
    EXPECT_EXIT(system.addTask("over", {{"o", 10, 1e-3}}),
                ::testing::ExitedWithCode(1), "task limit");
}

} // namespace
} // namespace core
} // namespace quetzal
