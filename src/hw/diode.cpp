#include "hw/diode.hpp"

#include <cmath>

#include "util/logging.hpp"

namespace quetzal {
namespace hw {

Diode::Diode(const DiodeConfig &config, Kelvin temperature)
    : cfg(config), temp(temperature)
{
    if (cfg.saturationCurrent <= 0.0)
        util::fatal("diode saturation current must be positive");
    if (cfg.idealityFactor <= 0.0)
        util::fatal("diode ideality factor must be positive");
    setTemperature(temperature);
}

void
Diode::setTemperature(Kelvin temperature)
{
    if (temperature <= 0.0)
        util::panic(util::msg("non-physical diode temperature: ",
                              temperature));
    temp = temperature;
}

Volts
Diode::thermalVoltage() const
{
    return cfg.idealityFactor * kBoltzmann * temp / kElementaryCharge;
}

Volts
Diode::voltageForCurrent(Amperes current) const
{
    if (current <= 0.0)
        return 0.0;
    return thermalVoltage() * std::log(current / cfg.saturationCurrent);
}

} // namespace hw
} // namespace quetzal
