/**
 * @file
 * Tests for the PID error-mitigation controller (paper section 4.3).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "core/pid.hpp"

namespace quetzal {
namespace core {
namespace {

PidConfig
unitGains()
{
    PidConfig cfg;
    cfg.kp = 1.0;
    cfg.ki = 0.0;
    cfg.kd = 0.0;
    cfg.derivativeTau = 0.0;
    cfg.outputMin = -100.0;
    cfg.outputMax = 100.0;
    return cfg;
}

TEST(Pid, ZeroBeforeFirstUpdate)
{
    PidController pid;
    EXPECT_EQ(pid.output(), 0.0);
    EXPECT_EQ(pid.updates(), 0ul);
}

TEST(Pid, ProportionalOnly)
{
    PidController pid(unitGains());
    EXPECT_DOUBLE_EQ(pid.update(3.0, 1.0), 3.0);
    EXPECT_DOUBLE_EQ(pid.update(-2.0, 1.0), -2.0);
}

TEST(Pid, IntegralAccumulates)
{
    PidConfig cfg = unitGains();
    cfg.kp = 0.0;
    cfg.ki = 1.0;
    PidController pid(cfg);
    // Trapezoidal: first step integrates (e0 + e1)/2 with e0 = 0.
    EXPECT_DOUBLE_EQ(pid.update(2.0, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(pid.update(2.0, 1.0), 3.0);
    EXPECT_DOUBLE_EQ(pid.update(2.0, 1.0), 5.0);
}

TEST(Pid, IntegratorAntiWindup)
{
    PidConfig cfg = unitGains();
    cfg.kp = 0.0;
    cfg.ki = 1.0;
    cfg.integratorMax = 2.5;
    PidController pid(cfg);
    for (int i = 0; i < 50; ++i)
        pid.update(10.0, 1.0);
    EXPECT_LE(pid.output(), 2.5 + 1e-12);
}

TEST(Pid, DerivativeRespondsToChange)
{
    PidConfig cfg = unitGains();
    cfg.kp = 0.0;
    cfg.kd = 1.0;
    PidController pid(cfg);
    // Error jumps from 0 to 5 over dt = 1: derivative ~ 5.
    EXPECT_NEAR(pid.update(5.0, 1.0), 5.0, 1e-9);
    // Constant error: derivative decays to 0.
    EXPECT_NEAR(pid.update(5.0, 1.0), 0.0, 1e-9);
}

TEST(Pid, DerivativeLowPassSmooths)
{
    PidConfig cfg = unitGains();
    cfg.kp = 0.0;
    cfg.kd = 1.0;
    cfg.derivativeTau = 1.0;
    PidController pid(cfg);
    const double first = pid.update(5.0, 1.0);
    // Filtered derivative is attenuated relative to the raw 5.0.
    EXPECT_LT(first, 5.0);
    EXPECT_GT(first, 0.0);
}

TEST(Pid, OutputClamped)
{
    PidConfig cfg = unitGains();
    cfg.outputMax = 1.5;
    cfg.outputMin = -0.5;
    PidController pid(cfg);
    EXPECT_DOUBLE_EQ(pid.update(100.0, 1.0), 1.5);
    EXPECT_DOUBLE_EQ(pid.update(-100.0, 1.0), -0.5);
}

TEST(Pid, PaperGainsAreGentle)
{
    // Table 1 gains: tiny P/I, derivative-dominated. A steady error
    // of one second produces a sub-millisecond steady correction.
    PidController pid;
    double out = 0.0;
    for (int i = 0; i < 100; ++i)
        out = pid.update(1.0, 1.0);
    EXPECT_LT(std::abs(out), 1e-3);
}

TEST(Pid, ConvergesTrackingDecayingError)
{
    PidController pid(unitGains());
    double error = 8.0;
    for (int i = 0; i < 200; ++i) {
        const double correction = pid.update(error, 0.5);
        // Plant: correction reduces future error.
        error = 0.9 * error - 0.05 * correction;
    }
    EXPECT_NEAR(error, 0.0, 1e-3);
    EXPECT_NEAR(pid.output(), 0.0, 1e-2);
}

TEST(PidDeathTest, InvalidDtPanics)
{
    PidController pid;
    EXPECT_DEATH(pid.update(1.0, 0.0), "dt");
}

TEST(PidDeathTest, InvalidLimitsFatal)
{
    PidConfig bad;
    bad.outputMin = 10.0;
    bad.outputMax = -10.0;
    EXPECT_EXIT(PidController{bad}, ::testing::ExitedWithCode(1),
                "limits");
}

} // namespace
} // namespace core
} // namespace quetzal
