/**
 * @file
 * Diode-Law device model.
 *
 * Quetzal's measurement circuit (paper section 5.1, figure 6) exploits
 * the Shockley relation V_d = (kT/q) * ln(I / I0): the diode voltage
 * is logarithmic in current, so a *difference* of two diode voltages
 * encodes the *ratio* of two currents — turning the expensive
 * P_exe / P_in division into a subtraction of ADC codes.
 */

#ifndef QUETZAL_HW_DIODE_HPP
#define QUETZAL_HW_DIODE_HPP

#include "util/types.hpp"

namespace quetzal {
namespace hw {

/** Boltzmann constant, J/K. */
inline constexpr double kBoltzmann = 1.380649e-23;

/** Elementary charge, C. */
inline constexpr double kElementaryCharge = 1.602176634e-19;

/** Celsius-to-kelvin offset. */
inline constexpr double kCelsiusOffset = 273.15;

/** Configuration for a Diode. */
struct DiodeConfig
{
    Amperes saturationCurrent = 1e-9; ///< I0 of the SDM40E20 Schottky
    double idealityFactor = 1.0;      ///< n in the full Shockley form
};

/**
 * An ideal-law diode at a configurable junction temperature.
 */
class Diode
{
  public:
    explicit Diode(const DiodeConfig &config = {},
                   Kelvin temperature = 25.0 + kCelsiusOffset);

    /** Static configuration. */
    const DiodeConfig &config() const { return cfg; }

    /** Junction temperature in kelvin. */
    Kelvin temperature() const { return temp; }

    /** Set the junction temperature (panics unless > 0). */
    void setTemperature(Kelvin temperature);

    /** Thermal voltage n*kT/q at the current temperature. */
    Volts thermalVoltage() const;

    /**
     * Forward voltage for a given current (Shockley law).
     * Currents at or below zero produce 0 V.
     */
    Volts voltageForCurrent(Amperes current) const;

  private:
    DiodeConfig cfg;
    Kelvin temp;
};

} // namespace hw
} // namespace quetzal

#endif // QUETZAL_HW_DIODE_HPP
