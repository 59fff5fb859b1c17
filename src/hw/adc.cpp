#include "hw/adc.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace quetzal {
namespace hw {

Adc8::Adc8(const AdcConfig &config) : cfg(config)
{
    if (cfg.vRef <= 0.0)
        util::fatal("ADC reference voltage must be positive");
}

Volts
Adc8::lsbVolts() const
{
    return cfg.vRef / 255.0;
}

std::uint8_t
Adc8::sample(Volts voltage) const
{
    const double code = std::round(voltage / lsbVolts());
    return applyFaults(
        static_cast<std::uint8_t>(std::clamp(code, 0.0, 255.0)));
}

std::uint8_t
Adc8::applyFaults(std::uint8_t code) const
{
    if (cfg.faultFree())
        return code;
    code = static_cast<std::uint8_t>(
        (code | cfg.stuckHighMask) & ~cfg.stuckLowMask);
    code = static_cast<std::uint8_t>(code ^ cfg.flipMask);
    return std::min(code, cfg.saturateMax);
}

Volts
Adc8::voltageForCode(std::uint8_t code) const
{
    return static_cast<double>(code) * lsbVolts();
}

} // namespace hw
} // namespace quetzal
