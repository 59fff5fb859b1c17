#include "hw/power_monitor_circuit.hpp"

#include "util/logging.hpp"
#include "util/wire.hpp"

namespace quetzal {
namespace hw {

PowerMonitorCircuit::PowerMonitorCircuit(const CircuitConfig &config)
    : cfg(config), diodes(config.diode), adc(config.adc)
{
    if (cfg.railVoltage <= 0.0)
        util::fatal("circuit rail voltage must be positive");
    if (cfg.capDividerRatio <= 0.0 || cfg.capDividerRatio > 1.0)
        util::fatal("cap divider ratio must be in (0, 1]");
}

void
PowerMonitorCircuit::setTemperature(Kelvin temperature)
{
    diodes.setTemperature(temperature);
}

Volts
PowerMonitorCircuit::diodeVoltageForPower(Watts power) const
{
    if (power <= 0.0)
        return 0.0;
    const Amperes current = power / cfg.railVoltage;
    return diodes.voltageForCurrent(current);
}

std::uint8_t
PowerMonitorCircuit::codeForPower(Watts power) const
{
    return adc.sample(diodeVoltageForPower(power));
}

std::uint8_t
PowerMonitorCircuit::read() const
{
    switch (selected) {
      case Channel::Vin:
        return codeForPower(inputPower);
      case Channel::Vexe:
        return codeForPower(executionPower);
      case Channel::Vcap:
        return adc.sample(capVoltage * cfg.capDividerRatio);
    }
    util::panic("invalid mux channel");
}

std::uint8_t
PowerMonitorCircuit::measureInputCode()
{
    select(Channel::Vin);
    return read();
}

std::uint8_t
PowerMonitorCircuit::measureExecutionCode()
{
    select(Channel::Vexe);
    return read();
}

void
PowerMonitorCircuit::State::walk(util::wire::Archive &ar)
{
    ar.real(inputPower);
    ar.real(executionPower);
    ar.real(capVoltage);
    ar.real(temperature);
    ar.byte(selected);
    ar.check(selected <= static_cast<std::uint8_t>(Channel::Vexe));
}

} // namespace hw
} // namespace quetzal
