/**
 * @file
 * Tests for the supercapacitor energy-storage model.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "energy/energy_storage.hpp"

namespace quetzal {
namespace energy {
namespace {

StorageConfig
paperConfig()
{
    // The paper's 33 mF supercap between 1.8 V and 3.3 V.
    return StorageConfig{};
}

TEST(StorageConfig, CapacityMatchesFormula)
{
    const StorageConfig cfg = paperConfig();
    // E = C/2 (vMax^2 - vOff^2) = 0.0165 * (10.89 - 3.24) = 0.1262 J
    EXPECT_NEAR(cfg.capacity(), 0.5 * 33e-3 * (3.3 * 3.3 - 1.8 * 1.8),
                1e-12);
    EXPECT_NEAR(cfg.restartEnergy(),
                0.5 * 33e-3 * (2.2 * 2.2 - 1.8 * 1.8), 1e-12);
    EXPECT_LT(cfg.restartEnergy(), cfg.capacity());
}

TEST(EnergyStorage, StartsFullByDefault)
{
    EnergyStorage storage(paperConfig());
    EXPECT_TRUE(storage.full());
    EXPECT_FALSE(storage.depleted());
    EXPECT_NEAR(storage.voltage(), 3.3, 1e-9);
}

TEST(EnergyStorage, StartsEmptyWhenRequested)
{
    EnergyStorage storage(paperConfig(), false);
    EXPECT_TRUE(storage.depleted());
    EXPECT_NEAR(storage.voltage(), 1.8, 1e-9);
}

TEST(EnergyStorage, HarvestClampsAtCapacity)
{
    EnergyStorage storage(paperConfig(), false);
    const Joules accepted = storage.harvest(1.0);
    EXPECT_NEAR(accepted, storage.capacity(), 1e-12);
    EXPECT_TRUE(storage.full());
    EXPECT_EQ(storage.harvest(0.5), 0.0);
}

TEST(EnergyStorage, DrawClampsAtZero)
{
    EnergyStorage storage(paperConfig());
    const Joules cap = storage.capacity();
    EXPECT_NEAR(storage.draw(cap / 2.0), cap / 2.0, 1e-12);
    EXPECT_NEAR(storage.draw(cap), cap / 2.0, 1e-12);
    EXPECT_TRUE(storage.depleted());
}

TEST(EnergyStorage, ConservationUnderRandomOps)
{
    EnergyStorage storage(paperConfig(), false);
    Joules tracked = 0.0;
    for (int i = 0; i < 1000; ++i) {
        tracked += storage.harvest(1e-3);
        tracked -= storage.draw(0.7e-3);
        EXPECT_NEAR(storage.energy(), tracked, 1e-9);
        EXPECT_GE(storage.energy(), 0.0);
        EXPECT_LE(storage.energy(), storage.capacity() + 1e-12);
    }
}

TEST(EnergyStorage, VoltageMonotoneInEnergy)
{
    EnergyStorage storage(paperConfig(), false);
    Volts previous = storage.voltage();
    for (int i = 0; i < 20; ++i) {
        storage.harvest(storage.capacity() / 20.0);
        EXPECT_GT(storage.voltage(), previous);
        previous = storage.voltage();
    }
    EXPECT_NEAR(previous, 3.3, 1e-6);
}

TEST(EnergyStorage, DeficitToRestart)
{
    EnergyStorage storage(paperConfig(), false);
    EXPECT_NEAR(storage.deficitToRestart(),
                storage.config().restartEnergy(), 1e-12);
    storage.harvest(storage.config().restartEnergy());
    EXPECT_NEAR(storage.deficitToRestart(), 0.0, 1e-12);
    storage.harvest(1e-3);
    EXPECT_EQ(storage.deficitToRestart(), 0.0);

    // The restart energy is cached at construction; the deficit must
    // still be exactly max(0, 0.5 C (vOn^2 - vOff^2) - E), bit for
    // bit, because the device's recharge solve and every golden
    // depend on it.
    StorageConfig cfg = paperConfig();
    cfg.capacitance = 4.7e-3;
    cfg.vOn = 2.35;
    EnergyStorage odd(cfg, false);
    for (int i = 0; i <= 64; ++i) {
        EXPECT_EQ(odd.deficitToRestart(),
                  std::max(0.0, cfg.restartEnergy() - odd.energy()))
            << "step " << i;
        odd.harvest(cfg.restartEnergy() / 61.0);
    }
}

TEST(EnergyStorageDeathTest, InvalidConfigIsFatal)
{
    StorageConfig bad = paperConfig();
    bad.vOn = 1.0; // below vOff
    EXPECT_EXIT(EnergyStorage{bad}, ::testing::ExitedWithCode(1),
                "voltage window");
}

} // namespace
} // namespace energy
} // namespace quetzal
