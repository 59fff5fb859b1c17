/**
 * @file
 * Tests for the logging channels and the fundamental unit helpers.
 */

#include <gtest/gtest.h>

#include "util/logging.hpp"
#include "util/types.hpp"

namespace quetzal {
namespace util {
namespace {

TEST(Logging, MsgConcatenates)
{
    EXPECT_EQ(msg("a", 1, "b", 2.5), "a1b2.5");
    EXPECT_EQ(msg(), "");
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(panic("invariant broken"), "invariant broken");
}

TEST(LoggingDeathTest, FatalExitsCleanly)
{
    EXPECT_EXIT(fatal("bad config"), ::testing::ExitedWithCode(1),
                "bad config");
}

TEST(Types, TickConversions)
{
    EXPECT_EQ(secondsToTicks(1.0), 1000);
    EXPECT_EQ(secondsToTicks(0.0015), 1);
    EXPECT_EQ(secondsToTicks(2.5), 2500);
    EXPECT_DOUBLE_EQ(ticksToSeconds(1500), 1.5);
    EXPECT_EQ(millisecondsToTicks(42.0), 42);
}

TEST(Types, RoundTripWholeMilliseconds)
{
    for (Tick t : {Tick{0}, Tick{1}, Tick{999}, Tick{123456}})
        EXPECT_EQ(secondsToTicks(ticksToSeconds(t)), t);
}

TEST(Types, EnergyOver)
{
    // 10 mW for 2 s = 20 mJ.
    EXPECT_DOUBLE_EQ(energyOver(10e-3, 2000), 20e-3);
    EXPECT_DOUBLE_EQ(energyOver(0.0, 12345), 0.0);
    EXPECT_DOUBLE_EQ(energyOver(1.0, 1), 1e-3);
}

TEST(Types, NeverComparesGreatest)
{
    EXPECT_GT(kTickNever, secondsToTicks(1e12));
}

} // namespace
} // namespace util
} // namespace quetzal
