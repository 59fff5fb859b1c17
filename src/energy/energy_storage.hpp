/**
 * @file
 * Supercapacitor energy-storage model.
 *
 * Models the paper's 33 mF BestCap supercapacitor behind a
 * BQ25504-style boost charger: the device operates while the
 * capacitor voltage is inside [vOff, vMax]; discharging to vOff
 * forces an off period that lasts until the capacitor recharges to
 * the turn-on threshold vOn (hysteresis). Energy accounting uses the
 * capacitor energy relative to vOff, i.e. the *usable* joules:
 * E = C/2 * (V^2 - vOff^2).
 */

#ifndef QUETZAL_ENERGY_ENERGY_STORAGE_HPP
#define QUETZAL_ENERGY_ENERGY_STORAGE_HPP

#include "util/types.hpp"

namespace quetzal {
namespace energy {

/** Configuration for an EnergyStorage element. */
struct StorageConfig
{
    Farads capacitance = 33e-3;  ///< paper's 33 mF supercap [5]
    Volts vMax = 3.3;            ///< regulator / charger ceiling
    Volts vOff = 1.8;            ///< brown-out voltage (device dies)
    Volts vOn = 2.2;             ///< turn-on threshold after brown-out

    /** Usable capacity in joules (energy between vOff and vMax). */
    Joules capacity() const;

    /** Usable joules at the turn-on threshold. */
    Joules restartEnergy() const;
};

/**
 * A charge-conserving joule account over a supercapacitor.
 *
 * Invariants: 0 <= energy() <= capacity(). All mutation is through
 * harvest() and draw(), which clamp at the rails and report the
 * accepted/delivered amount so callers can account precisely.
 */
class EnergyStorage
{
  public:
    /** Construct full by default (deployments start charged). */
    explicit EnergyStorage(const StorageConfig &config,
                           bool startFull = true);

    /** Static configuration. */
    const StorageConfig &config() const { return cfg; }

    /** Usable stored energy in joules (>= 0). */
    Joules energy() const { return stored; }

    /** Usable capacity in joules. */
    Joules capacity() const { return cap; }


    /** True when at capacity. */
    bool full() const { return stored >= cap; }

    /** True when fully discharged (at vOff). */
    bool depleted() const { return stored <= 0.0; }

    /**
     * Add harvested joules; clamps at capacity.
     * @return the joules actually accepted.
     */
    Joules
    harvest(Joules amount)
    {
        if (amount < 0.0)
            negativeAmount("harvest");
        const Joules accepted = amount < cap - stored ?
            amount : cap - stored;
        stored += accepted;
        rejected += amount - accepted;
        return accepted;
    }

    /**
     * Cumulative harvested joules rejected because the capacitor was
     * full — the "energy wasted" column of the policy tournament.
     */
    Joules rejectedHarvest() const { return rejected; }

    /**
     * Draw joules for execution; clamps at zero.
     * @return the joules actually delivered (== amount unless the
     *         request crosses the vOff rail).
     */
    Joules
    draw(Joules amount)
    {
        if (amount < 0.0)
            negativeAmount("draw");
        const Joules delivered = amount < stored ? amount : stored;
        stored -= delivered;
        return delivered;
    }

    /**
     * Joules still needed to reach the turn-on threshold, or 0 when
     * already above it.
     */
    Joules
    deficitToRestart() const
    {
        const Joules deficit = restart - stored;
        return deficit > 0.0 ? deficit : 0.0;
    }

    /**
     * Restore from a snapshot: overwrites the stored energy (clamped
     * to [0, capacity]) and the cumulative rejected-harvest
     * accumulator. A resumed run passes the snapshot's total so its
     * waste accounting continues; the fleet engine, which rehydrates
     * scratch devices every slab, passes 0 and reads
     * rejectedHarvest() back as a per-slab delta.
     */
    void
    restoreExact(Joules amount, Joules rejectedTotal)
    {
        stored = amount < 0.0 ? 0.0 : (amount > cap ? cap : amount);
        rejected = rejectedTotal;
    }

  private:
    /** Cold panic path kept out of line so harvest()/draw() inline. */
    [[noreturn]] static void negativeAmount(const char *op);

    StorageConfig cfg;
    Joules cap;
    Joules restart; ///< cfg.restartEnergy(), cached
    Joules stored;
    Joules rejected = 0.0;
};

} // namespace energy
} // namespace quetzal

#endif // QUETZAL_ENERGY_ENERGY_STORAGE_HPP
