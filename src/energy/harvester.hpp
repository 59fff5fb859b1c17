/**
 * @file
 * Solar-harvester front end.
 *
 * Converts a dimensionless irradiance trace ([0, 1] of full sun) into
 * the electrical power delivered to the energy store, modeling the
 * paper's setup: N cells of a commercial solar product [45] feeding a
 * BQ25504 boost charger [88]. The datasheet maximum — cells at rated
 * full-sun output — is what the Zygarde/Protean "ZGO" baseline uses
 * for its static thresholds; the paper observes real traces rarely
 * approach it, which this model reproduces (irradiance is usually
 * well below 1).
 */

#ifndef QUETZAL_ENERGY_HARVESTER_HPP
#define QUETZAL_ENERGY_HARVESTER_HPP

#include "energy/power_trace.hpp"
#include "util/types.hpp"

namespace quetzal {
namespace energy {

/** Configuration for a Harvester. */
struct HarvesterConfig
{
    int cellCount = 6;             ///< paper Table 1 / section 6.4
    Watts cellRatedPower = 50e-3;  ///< per-cell full-sun rating
    double converterEfficiency = 0.8; ///< BQ25504-class boost efficiency
};

/**
 * Maps irradiance to harvested electrical power.
 */
class Harvester
{
  public:
    explicit Harvester(const HarvesterConfig &config);

    /** Static configuration. */
    const HarvesterConfig &config() const { return cfg; }

    /**
     * Rated (datasheet) maximum electrical output: what a designer
     * reading the datasheet would believe the harvester delivers.
     */
    Watts datasheetMaxPower() const;

    /**
     * Convert an irradiance trace into an electrical power trace by
     * scaling every segment by datasheetMaxPower().
     */
    PowerTrace powerTrace(const PowerTrace &irradiance) const;

  private:
    HarvesterConfig cfg;
};

} // namespace energy
} // namespace quetzal

#endif // QUETZAL_ENERGY_HARVESTER_HPP
