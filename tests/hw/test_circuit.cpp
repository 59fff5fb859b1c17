/**
 * @file
 * Tests for the power-monitor circuit: mux behaviour and the core
 * property that code differences encode power ratios.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "hw/power_monitor_circuit.hpp"

namespace quetzal {
namespace hw {
namespace {

TEST(Circuit, MuxSelectsChannels)
{
    PowerMonitorCircuit circuit;
    circuit.setInputPower(5e-3);
    circuit.setExecutionPower(50e-3);
    circuit.setCapVoltage(3.0);

    circuit.select(Channel::Vin);
    const auto vin = circuit.read();
    circuit.select(Channel::Vexe);
    const auto vexe = circuit.read();
    circuit.select(Channel::Vcap);
    const auto vcap = circuit.read();

    EXPECT_EQ(vin, circuit.measureInputCode());
    EXPECT_EQ(vexe, circuit.measureExecutionCode());
    circuit.select(Channel::Vcap);
    EXPECT_EQ(vcap, circuit.read());
    // Higher power -> higher diode voltage -> higher code.
    EXPECT_GT(vexe, vin);
}

TEST(Circuit, CodeMonotoneInPower)
{
    PowerMonitorCircuit circuit;
    std::uint8_t previous = 0;
    for (double mw = 0.1; mw < 200.0; mw *= 1.3) {
        const auto code = circuit.codeForPower(mw * 1e-3);
        EXPECT_GE(code, previous);
        previous = code;
    }
}

TEST(Circuit, ZeroPowerGivesZeroCode)
{
    PowerMonitorCircuit circuit;
    EXPECT_EQ(circuit.codeForPower(0.0), 0);
    EXPECT_EQ(circuit.codeForPower(-1.0), 0);
}

TEST(Circuit, EqualPowersGiveEqualCodes)
{
    PowerMonitorCircuit circuit;
    for (double mw : {1.0, 5.0, 20.0, 80.0}) {
        circuit.setInputPower(mw * 1e-3);
        circuit.setExecutionPower(mw * 1e-3);
        EXPECT_EQ(circuit.measureInputCode(),
                  circuit.measureExecutionCode());
    }
}

TEST(Circuit, CodeDifferenceEncodesRatio)
{
    // The paper's central identity: with V_ADCMax = 0.6 V, one code
    // step is ~1/8 of a binary order of magnitude of current ratio,
    // so delta ~= 8 * log2(P_exe / P_in).
    PowerMonitorCircuit circuit;
    circuit.setTemperature(37.5 + kCelsiusOffset); // band center
    for (double ratio : {2.0, 4.0, 8.0, 16.0}) {
        const double pin = 2e-3;
        const auto codeIn = circuit.codeForPower(pin);
        const auto codeExe = circuit.codeForPower(pin * ratio);
        const int delta = codeExe - codeIn;
        const double expected = 8.0 * std::log2(ratio);
        EXPECT_NEAR(delta, expected, 1.6)
            << "ratio " << ratio;
    }
}

TEST(Circuit, CapChannelUsesDivider)
{
    CircuitConfig cfg;
    cfg.capDividerRatio = 0.15;
    PowerMonitorCircuit circuit(cfg);
    circuit.setCapVoltage(3.3);
    // 3.3 V * 0.15 = 0.495 V of 0.6 V full scale.
    circuit.select(Channel::Vcap);
    const auto code = circuit.read();
    EXPECT_NEAR(code, 0.495 / 0.6 * 255.0, 1.0);
}

TEST(Circuit, TemperatureShiftsCodes)
{
    PowerMonitorCircuit circuit;
    circuit.setTemperature(25.0 + kCelsiusOffset);
    const auto cold = circuit.codeForPower(10e-3);
    circuit.setTemperature(50.0 + kCelsiusOffset);
    const auto hot = circuit.codeForPower(10e-3);
    EXPECT_NE(cold, hot);
}

TEST(CircuitDeathTest, InvalidRailIsFatal)
{
    CircuitConfig bad;
    bad.railVoltage = 0.0;
    EXPECT_EXIT(PowerMonitorCircuit{bad}, ::testing::ExitedWithCode(1),
                "rail");
}

} // namespace
} // namespace hw
} // namespace quetzal
