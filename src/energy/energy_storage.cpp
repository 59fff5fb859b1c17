#include "energy/energy_storage.hpp"

#include <cmath>

#include "util/logging.hpp"

namespace quetzal {
namespace energy {

Joules
StorageConfig::capacity() const
{
    return 0.5 * capacitance * (vMax * vMax - vOff * vOff);
}

Joules
StorageConfig::restartEnergy() const
{
    return 0.5 * capacitance * (vOn * vOn - vOff * vOff);
}

EnergyStorage::EnergyStorage(const StorageConfig &config, bool startFull)
    : cfg(config), cap(config.capacity()),
      restart(config.restartEnergy()), stored(startFull ? cap : 0.0)
{
    if (cfg.capacitance <= 0.0)
        util::fatal("storage capacitance must be positive");
    if (!(cfg.vOff < cfg.vOn && cfg.vOn <= cfg.vMax))
        util::fatal(util::msg("storage voltage window invalid: vOff=",
                              cfg.vOff, " vOn=", cfg.vOn, " vMax=",
                              cfg.vMax));
}

void
EnergyStorage::negativeAmount(const char *op)
{
    util::panic(util::msg("EnergyStorage::", op, " of negative energy"));
}

} // namespace energy
} // namespace quetzal
