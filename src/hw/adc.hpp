/**
 * @file
 * 8-bit analog-to-digital converter model.
 *
 * The paper's circuit reads diode voltages through a low-power 8-bit
 * ADC with V_ADCMax = 0.6 V, chosen so that one ADC code corresponds
 * to almost exactly 1/8 of a binary order of magnitude of current
 * ratio for junction temperatures between 25 and 50 C (section 5.1).
 */

#ifndef QUETZAL_HW_ADC_HPP
#define QUETZAL_HW_ADC_HPP

#include <cstdint>

#include "util/types.hpp"

namespace quetzal {
namespace hw {

/** Configuration for an Adc8. */
struct AdcConfig
{
    Volts vRef = 0.6; ///< full-scale voltage (paper's V_ADCMax)

    /**
     * @name Hardware-fault masks (src/fault)
     * Applied to every quantized code, in this order: bits in
     * stuckHighMask read as 1, bits in stuckLowMask read as 0, bits
     * in flipMask invert, and the result saturates at saturateMax.
     * The defaults are the identity, so a clean AdcConfig is exactly
     * the pre-fault ADC.
     */
    /// @{
    std::uint8_t stuckHighMask = 0;
    std::uint8_t stuckLowMask = 0;
    std::uint8_t flipMask = 0;
    std::uint8_t saturateMax = 255;
    /// @}

    /** True when the fault masks are the identity. */
    bool faultFree() const
    {
        return stuckHighMask == 0 && stuckLowMask == 0 &&
            flipMask == 0 && saturateMax == 255;
    }
};

/** An 8-bit ADC: quantizes [0, vRef] to codes 0..255. */
class Adc8
{
  public:
    explicit Adc8(const AdcConfig &config = {});

    /** Static configuration. */
    const AdcConfig &config() const { return cfg; }

    /** Volts represented by one code step. */
    Volts lsbVolts() const;

    /** Quantize a voltage to a code (saturating at 0 and 255). */
    std::uint8_t sample(Volts voltage) const;

    /** Apply the config's fault masks to an already-quantized code. */
    std::uint8_t applyFaults(std::uint8_t code) const;

  private:
    AdcConfig cfg;
};

} // namespace hw
} // namespace quetzal

#endif // QUETZAL_HW_ADC_HPP
