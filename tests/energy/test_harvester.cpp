/**
 * @file
 * Tests for the harvester front end.
 */

#include <gtest/gtest.h>

#include "energy/harvester.hpp"

namespace quetzal {
namespace energy {
namespace {

TEST(Harvester, DatasheetMaxScalesWithCells)
{
    HarvesterConfig cfg;
    cfg.cellCount = 6;
    cfg.cellRatedPower = 30e-3;
    cfg.converterEfficiency = 0.8;
    const Harvester six(cfg);
    cfg.cellCount = 3;
    const Harvester three(cfg);
    EXPECT_NEAR(six.datasheetMaxPower(), 2.0 * three.datasheetMaxPower(),
                1e-12);
    EXPECT_NEAR(six.datasheetMaxPower(), 6 * 30e-3 * 0.8, 1e-12);
}

TEST(Harvester, TraceScaling)
{
    const Harvester harvester{HarvesterConfig{}};
    PowerTrace irradiance({{0, 0.25}, {1000, 0.5}});
    const PowerTrace watts = harvester.powerTrace(irradiance);
    EXPECT_NEAR(watts.valueAt(0),
                0.25 * harvester.datasheetMaxPower(), 1e-12);
    EXPECT_NEAR(watts.valueAt(1000),
                0.5 * harvester.datasheetMaxPower(), 1e-12);
}

TEST(HarvesterDeathTest, InvalidConfigIsFatal)
{
    HarvesterConfig bad;
    bad.cellCount = 0;
    EXPECT_EXIT(Harvester{bad}, ::testing::ExitedWithCode(1), "cell");
    HarvesterConfig badEff;
    badEff.converterEfficiency = 1.5;
    EXPECT_EXIT(Harvester{badEff}, ::testing::ExitedWithCode(1),
                "efficiency");
}

} // namespace
} // namespace energy
} // namespace quetzal
