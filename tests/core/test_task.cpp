/**
 * @file
 * Tests for the task/option model.
 */

#include <gtest/gtest.h>

#include "core/task.hpp"

namespace quetzal {
namespace core {
namespace {

std::vector<DegradationOption>
twoOptions()
{
    DegradationOption high;
    high.name = "high";
    high.exeTicks = 1000;
    high.execPower = 20e-3;
    DegradationOption low;
    low.name = "low";
    low.exeTicks = 100;
    low.execPower = 10e-3;
    return {high, low};
}

TEST(Task, BasicProperties)
{
    Task task(3, "ml", twoOptions());
    EXPECT_EQ(task.id(), 3u);
    EXPECT_EQ(task.name(), "ml");
    EXPECT_EQ(task.optionCount(), 2u);
    EXPECT_TRUE(task.degradable());
    EXPECT_EQ(task.option(0).name, "high");
    EXPECT_EQ(task.option(1).name, "low");
}

TEST(Task, SingleOptionNotDegradable)
{
    auto options = twoOptions();
    options.resize(1);
    Task task(0, "fixed", options);
    EXPECT_FALSE(task.degradable());
}

TEST(Task, OptionEnergyAndSeconds)
{
    Task task(0, "ml", twoOptions());
    EXPECT_NEAR(task.option(0).energy(), 20e-3 * 1.0, 1e-12); // 20 mJ
    EXPECT_NEAR(task.option(1).energy(), 10e-3 * 0.1, 1e-12); // 1 mJ
    EXPECT_DOUBLE_EQ(task.option(0).exeSeconds(), 1.0);
}

TEST(TaskDeathTest, EmptyOptionsFatal)
{
    EXPECT_EXIT(Task(0, "bad", {}), ::testing::ExitedWithCode(1),
                "at least one option");
}

TEST(TaskDeathTest, TooManyOptionsFatal)
{
    std::vector<DegradationOption> options;
    for (int i = 0; i < 5; ++i) {
        DegradationOption opt;
        opt.name = "o";
        opt.exeTicks = 10;
        opt.execPower = 1e-3;
        options.push_back(opt);
    }
    EXPECT_EXIT(Task(0, "bad", options), ::testing::ExitedWithCode(1),
                "degradation options");
}

TEST(TaskDeathTest, NonPositiveCostsFatal)
{
    auto options = twoOptions();
    options[0].exeTicks = 0;
    EXPECT_EXIT(Task(0, "bad", options), ::testing::ExitedWithCode(1),
                "latency");
    options = twoOptions();
    options[1].execPower = 0.0;
    EXPECT_EXIT(Task(0, "bad", options), ::testing::ExitedWithCode(1),
                "power");
}

TEST(TaskDeathTest, OptionIndexOutOfRangePanics)
{
    Task task(0, "ml", twoOptions());
    EXPECT_DEATH(task.option(2), "out of range");
}

} // namespace
} // namespace core
} // namespace quetzal
