#include "energy/harvester.hpp"

#include "util/logging.hpp"

namespace quetzal {
namespace energy {

Harvester::Harvester(const HarvesterConfig &config) : cfg(config)
{
    if (cfg.cellCount <= 0)
        util::fatal(util::msg("harvester cell count must be positive: ",
                              cfg.cellCount));
    if (cfg.cellRatedPower <= 0.0)
        util::fatal("harvester cell rated power must be positive");
    if (cfg.converterEfficiency <= 0.0 || cfg.converterEfficiency > 1.0)
        util::fatal(util::msg("converter efficiency out of (0,1]: ",
                              cfg.converterEfficiency));
}

Watts
Harvester::datasheetMaxPower() const
{
    return static_cast<double>(cfg.cellCount) * cfg.cellRatedPower *
        cfg.converterEfficiency;
}

PowerTrace
Harvester::powerTrace(const PowerTrace &irradiance) const
{
    return irradiance.scaled(datasheetMaxPower());
}

} // namespace energy
} // namespace quetzal
