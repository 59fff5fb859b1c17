/**
 * @file
 * Tests for the Diode-Law model that underpins the measurement
 * circuit (paper section 5.1).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "hw/diode.hpp"

namespace quetzal {
namespace hw {
namespace {

TEST(Diode, ThermalVoltageAtRoomTemperature)
{
    Diode diode({}, 25.0 + kCelsiusOffset);
    // kT/q at 298.15 K is about 25.7 mV.
    EXPECT_NEAR(diode.thermalVoltage(), 25.7e-3, 0.3e-3);
}

TEST(Diode, VoltageLogarithmicInCurrent)
{
    Diode diode;
    const Volts v1 = diode.voltageForCurrent(1e-3);
    const Volts v2 = diode.voltageForCurrent(2e-3);
    const Volts v4 = diode.voltageForCurrent(4e-3);
    // Equal current ratios produce equal voltage differences.
    EXPECT_NEAR(v2 - v1, v4 - v2, 1e-9);
    // One decade of current is ~59 mV at room temperature (n = 1).
    const Volts decade = diode.voltageForCurrent(1e-2) - v1;
    EXPECT_NEAR(decade, diode.thermalVoltage() * std::log(10.0), 1e-9);
}

TEST(Diode, InverseConsistency)
{
    Diode diode;
    for (double current : {1e-6, 1e-4, 1e-3, 5e-2}) {
        const Volts v = diode.voltageForCurrent(current);
        // The Shockley inverse: I = Is * exp(V / Vt).
        EXPECT_NEAR(DiodeConfig{}.saturationCurrent *
                        std::exp(v / diode.thermalVoltage()),
                    current, current * 1e-9);
    }
}

TEST(Diode, NonPositiveCurrentGivesZeroVolts)
{
    Diode diode;
    EXPECT_EQ(diode.voltageForCurrent(0.0), 0.0);
    EXPECT_EQ(diode.voltageForCurrent(-1.0), 0.0);
}

TEST(Diode, TemperatureRaisesVoltageSlope)
{
    Diode cold({}, 25.0 + kCelsiusOffset);
    Diode hot({}, 50.0 + kCelsiusOffset);
    // Same current ratio spans a larger voltage range when hot.
    const Volts coldSpan = cold.voltageForCurrent(1e-2) -
        cold.voltageForCurrent(1e-4);
    const Volts hotSpan = hot.voltageForCurrent(1e-2) -
        hot.voltageForCurrent(1e-4);
    EXPECT_GT(hotSpan, coldSpan);
    EXPECT_NEAR(hotSpan / coldSpan,
                (50.0 + kCelsiusOffset) / (25.0 + kCelsiusOffset),
                1e-9);
}

TEST(Diode, IdealityFactorScalesVoltage)
{
    Diode ideal({1e-9, 1.0});
    Diode lossy({1e-9, 2.0});
    EXPECT_NEAR(lossy.voltageForCurrent(1e-3),
                2.0 * ideal.voltageForCurrent(1e-3), 1e-12);
}

TEST(DiodeDeathTest, NonPhysicalTemperaturePanics)
{
    Diode diode;
    EXPECT_DEATH(diode.setTemperature(-5.0), "temperature");
}

} // namespace
} // namespace hw
} // namespace quetzal
