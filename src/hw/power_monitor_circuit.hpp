/**
 * @file
 * The Quetzal power-measurement circuit (paper section 5.1, fig. 6).
 *
 * Four components: two diodes, a three-way analog multiplexer and an
 * 8-bit ADC. The harvester's input current flows through diode D1 and
 * the load's execution current through diode D2; both measurements
 * are taken at the same rail voltage, so the power ratio reduces to a
 * current ratio, and the Diode Law turns that into a difference of
 * ADC codes (see hw::RatioEngine for the arithmetic side).
 *
 * The MCU interface mirrors the paper's: one select signal choosing
 * among three voltages (V_in, V_cap, V_exe) and one 8-bit read.
 */

#ifndef QUETZAL_HW_POWER_MONITOR_CIRCUIT_HPP
#define QUETZAL_HW_POWER_MONITOR_CIRCUIT_HPP

#include <cstdint>

#include "hw/adc.hpp"
#include "hw/diode.hpp"
#include "util/types.hpp"

namespace quetzal::util::wire {
class Archive;
}

namespace quetzal {
namespace hw {

/** Mux channels, matching the paper's three measurement points. */
enum class Channel : std::uint8_t {
    Vin,  ///< diode D1: harvester input current
    Vcap, ///< storage-capacitor voltage (divided into ADC range)
    Vexe, ///< diode D2: execution (load) current
};

/** Configuration for a PowerMonitorCircuit. */
struct CircuitConfig
{
    DiodeConfig diode;        ///< both diodes are the same part
    AdcConfig adc;            ///< 8-bit, 0.6 V full scale
    Volts railVoltage = 3.0;  ///< common measurement voltage
    Volts capDividerRatio = 0.15; ///< V_cap scaling into ADC range
};

/**
 * Behavioural model of the measurement circuit. The simulator drives
 * the physical side (setInputPower / setExecutionPower /
 * setCapVoltage / setTemperature); the runtime reads the digital side
 * (select + read, or the measureX conveniences).
 */
class PowerMonitorCircuit
{
  public:
    explicit PowerMonitorCircuit(const CircuitConfig &config = {});

    /** Static configuration. */
    const CircuitConfig &config() const { return cfg; }

    /** @name Physical side (driven by the simulator) */
    /// @{
    void setInputPower(Watts power) { inputPower = power; }
    void setExecutionPower(Watts power) { executionPower = power; }
    void setCapVoltage(Volts voltage) { capVoltage = voltage; }

    /** Set junction temperature of both diodes (kelvin). */
    void setTemperature(Kelvin temperature);

    Kelvin temperature() const { return diodes.temperature(); }
    /// @}

    /** @name Digital side (driven by the runtime/MCU) */
    /// @{
    /** Select the mux channel. */
    void select(Channel channel) { selected = channel; }

    /** Read the 8-bit ADC for the selected channel. */
    std::uint8_t read() const;

    /** Convenience: select Vin and read (the paper's V_D1). */
    std::uint8_t measureInputCode();

    /** Convenience: select Vexe and read (the paper's V_D2). */
    std::uint8_t measureExecutionCode();

    /// @}

    /**
     * The code the circuit would produce for an arbitrary power at
     * the rail voltage — used at profile time to record a task's
     * execution-power code, and by tests.
     */
    std::uint8_t codeForPower(Watts power) const;

    /**
     * The exact (un-quantized) diode voltage for a power, for error
     * analysis in tests and the calibration example.
     */
    Volts diodeVoltageForPower(Watts power) const;

    /**
     * Physical-side state for checkpoint/restore (the config is not
     * part of it — a restored circuit must be built with the same
     * CircuitConfig).
     */
    struct State
    {
        Watts inputPower = 0.0;
        Watts executionPower = 0.0;
        Volts capVoltage = 0.0;
        Kelvin temperature = 0.0;
        std::uint8_t selected = 0; ///< Channel as its underlying value

        /** The wire layout: four doubles, then the channel byte
         *  (load rejects a value that names no Channel). */
        void walk(util::wire::Archive &ar);
    };

    /** Snapshot the physical side (see State). */
    State exportState() const
    {
        return State{inputPower, executionPower, capVoltage,
                     temperature(), static_cast<std::uint8_t>(selected)};
    }

    /** Restore a snapshot taken with exportState(). */
    void importState(const State &snapshot)
    {
        inputPower = snapshot.inputPower;
        executionPower = snapshot.executionPower;
        capVoltage = snapshot.capVoltage;
        setTemperature(snapshot.temperature);
        selected = static_cast<Channel>(snapshot.selected);
    }

  private:
    CircuitConfig cfg;
    Diode diodes;
    Adc8 adc;
    Watts inputPower = 0.0;
    Watts executionPower = 0.0;
    Volts capVoltage = 0.0;
    Channel selected = Channel::Vin;
};

} // namespace hw
} // namespace quetzal

#endif // QUETZAL_HW_POWER_MONITOR_CIRCUIT_HPP
