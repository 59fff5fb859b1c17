/**
 * @file
 * Unit tests of the fleet's per-device state block, the integer
 * counter algebra, and the coordinator's directive protocol — the
 * pieces whose exactness the determinism suite builds on.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fleet/coordinator.hpp"
#include "fleet/fleet.hpp"
#include "fleet/state.hpp"

namespace {

using namespace quetzal;

TEST(CohortBlock, InitAllocatesDeploymentState)
{
    fleet::CohortBlock block;
    block.init(/*first=*/120, /*count=*/7, /*fullCharge=*/0.05);

    EXPECT_EQ(block.firstDevice, 120u);
    EXPECT_EQ(block.size(), 7u);
    for (std::size_t i = 0; i < block.size(); ++i) {
        EXPECT_DOUBLE_EQ(block.charge[i], 0.05);
        EXPECT_EQ(block.taskTicksLeft[i], 0);
        EXPECT_EQ(block.phaseTicksLeft[i], 0);
        EXPECT_EQ(block.cursor[i], 0u);
        EXPECT_EQ(block.phase[i], 0);
        EXPECT_EQ(block.occupancy[i], 0);
        EXPECT_EQ(block.level[i], 0);
        EXPECT_EQ(block.scratch[i], 0);
    }
}

TEST(CohortBlock, BytesIsTwentyNinePerDevice)
{
    fleet::CohortBlock block;
    block.init(0, 1000, 0.1);
    EXPECT_EQ(block.bytes(), 29u * 1000u);

    fleet::ShardState shard;
    shard.blocks.push_back(block);
    shard.blocks.push_back(block);
    EXPECT_EQ(shard.bytes(), 2u * 29u * 1000u);
}

TEST(CohortBlock, CopyDevicesCopiesEveryColumn)
{
    fleet::CohortBlock from;
    from.init(0, 4, 0.0);
    for (std::size_t i = 0; i < from.size(); ++i) {
        from.charge[i] = 0.5 + static_cast<double>(i);
        from.taskTicksLeft[i] = 10 + static_cast<std::int64_t>(i);
        from.phaseTicksLeft[i] = 20 + static_cast<std::int32_t>(i);
        from.cursor[i] = 30 + static_cast<std::uint32_t>(i);
        from.phase[i] = static_cast<std::uint8_t>(i);
        from.occupancy[i] = static_cast<std::uint16_t>(40 + i);
        from.level[i] = static_cast<std::uint8_t>(i % 3);
        from.scratch[i] = static_cast<std::uint8_t>(50 + i);
    }

    // Devices 1..2 of `from` over devices 2..3 of a fresh block.
    fleet::CohortBlock into;
    into.init(100, 4, 9.0);
    into.copyDevices(2, from, 1, 2);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_DOUBLE_EQ(into.charge[i], 9.0);
        EXPECT_EQ(into.occupancy[i], 0);
    }
    for (std::size_t i = 2; i < 4; ++i) {
        const std::size_t j = i - 1;
        EXPECT_DOUBLE_EQ(into.charge[i], from.charge[j]);
        EXPECT_EQ(into.taskTicksLeft[i], from.taskTicksLeft[j]);
        EXPECT_EQ(into.phaseTicksLeft[i], from.phaseTicksLeft[j]);
        EXPECT_EQ(into.cursor[i], from.cursor[j]);
        EXPECT_EQ(into.phase[i], from.phase[j]);
        EXPECT_EQ(into.occupancy[i], from.occupancy[j]);
        EXPECT_EQ(into.level[i], from.level[j]);
        EXPECT_EQ(into.scratch[i], from.scratch[j]);
    }
    EXPECT_EQ(into.firstDevice, 100u);
}

TEST(CohortCounters, AddIsFieldWiseSum)
{
    fleet::CohortCounters a;
    a.captures = 10;
    a.missedCaptures = 3;
    a.storedInputs = 7;
    a.dropsInteresting = 1;
    a.dropsUninteresting = 2;
    a.jobsCompleted = 6;
    a.degradedJobs = 4;
    a.powerFailures = 5;
    a.checkpointSaves = 5;
    a.rechargeTicks = 900;
    a.activeTicks = 800;
    a.chargeNanojoules = 123456789;
    a.wastedNanojoules = 1000;
    a.occupancySum = 12;
    a.devicesOff = 2;

    fleet::CohortCounters b = a;
    b.add(a);

    EXPECT_EQ(b.captures, 20u);
    EXPECT_EQ(b.missedCaptures, 6u);
    EXPECT_EQ(b.storedInputs, 14u);
    EXPECT_EQ(b.dropsInteresting, 2u);
    EXPECT_EQ(b.dropsUninteresting, 4u);
    EXPECT_EQ(b.jobsCompleted, 12u);
    EXPECT_EQ(b.degradedJobs, 8u);
    EXPECT_EQ(b.powerFailures, 10u);
    EXPECT_EQ(b.checkpointSaves, 10u);
    EXPECT_EQ(b.rechargeTicks, 1800u);
    EXPECT_EQ(b.activeTicks, 1600u);
    EXPECT_EQ(b.chargeNanojoules, 246913578u);
    EXPECT_EQ(b.wastedNanojoules, 2000u);
    EXPECT_EQ(b.occupancySum, 24u);
    EXPECT_EQ(b.devicesOff, 4u);
}

TEST(Directive, ExecTicksHalvesPerLevelAndFloorsAtOne)
{
    EXPECT_EQ(fleet::execTicks(90000, 0), 90000);
    EXPECT_EQ(fleet::execTicks(90000, 1), 45000);
    EXPECT_EQ(fleet::execTicks(90000, 2), 22500);
    EXPECT_EQ(fleet::execTicks(1, 2), 1);
}

TEST(Directive, AssignLevelAppliesPressureThresholds)
{
    fleet::Directive directive;
    directive.baseLevel = 0;
    directive.pressureLevel = 2;
    directive.occupancyHigh = 3;
    directive.chargeLowNano = 1000;

    // Healthy device: base level.
    EXPECT_EQ(fleet::assignLevel(directive, 5000, 1), 0);
    // Occupancy at the threshold: pressure.
    EXPECT_EQ(fleet::assignLevel(directive, 5000, 3), 2);
    // Charge at the floor: pressure.
    EXPECT_EQ(fleet::assignLevel(directive, 1000, 0), 2);
    // Default directive never leaves base quality.
    EXPECT_EQ(fleet::assignLevel(fleet::Directive{}, 0, 100), 0);
}

/** The fleet_day stress cohort: keep-up needs one degrade level. */
fleet::FleetConfig
stressConfig(const char *policy)
{
    fleet::FleetConfig config;
    fleet::CohortConfig cohort;
    cohort.name = "c0";
    cohort.policy = policy;
    cohort.devices = 100;
    cohort.harvesterCells = 1;
    cohort.capturePeriod = 60 * kTicksPerSecond;
    cohort.bufferCapacity = 4;
    cohort.taskTicks = 90 * kTicksPerSecond;
    config.cohorts.push_back(cohort);
    return config;
}

TEST(FleetCoordinator, UnknownPolicyFailsAtConstruction)
{
    const fleet::FleetConfig config = stressConfig("no-such-policy");
    EXPECT_DEATH(fleet::FleetCoordinator coordinator(config),
                 "no-such-policy");
}

TEST(FleetCoordinator, GreedyNeverDegrades)
{
    const fleet::FleetConfig config = stressConfig("greedy-fcfs");
    const fleet::FleetCoordinator coordinator(config);
    std::vector<fleet::CohortState> cohorts(1);

    fleet::CohortCounters slab;
    slab.dropsInteresting = 500;
    slab.occupancySum = 400; // mean occupancy 4 of capacity 4
    coordinator.consumeSlab({slab}, cohorts);

    const fleet::Directive &directive = cohorts[0].directive;
    EXPECT_EQ(directive.baseLevel, 0);
    EXPECT_EQ(directive.pressureLevel, 0);
    EXPECT_EQ(fleet::assignLevel(directive, 0, 4), 0);
}

TEST(FleetCoordinator, SjfIboEscalatesOnDropsAndRelaxesWhenQuiet)
{
    const fleet::FleetConfig config = stressConfig("sjf-ibo");
    const fleet::FleetCoordinator coordinator(config);
    std::vector<fleet::CohortState> cohorts(1);

    // Drops observed: escalate to the keep-up level (90 s jobs vs
    // 60 s captures -> level 1) with pressure one above.
    fleet::CohortCounters drops;
    drops.dropsInteresting = 10;
    coordinator.consumeSlab({drops}, cohorts);
    EXPECT_EQ(cohorts[0].directive.baseLevel, 1);
    EXPECT_EQ(cohorts[0].directive.pressureLevel, 2);
    EXPECT_EQ(cohorts[0].directive.occupancyHigh, 3u);

    // Two quiet slabs: relax one level per slab, back to full quality.
    coordinator.consumeSlab({fleet::CohortCounters{}}, cohorts);
    EXPECT_EQ(cohorts[0].directive.baseLevel, 0);
    coordinator.consumeSlab({fleet::CohortCounters{}}, cohorts);
    EXPECT_EQ(cohorts[0].directive.baseLevel, 0);
}

TEST(FleetCoordinator, ZygardeDrainsBacklogByDeadline)
{
    const fleet::FleetConfig config = stressConfig("zygarde");
    const fleet::FleetCoordinator coordinator(config);
    std::vector<fleet::CohortState> cohorts(1);

    // Empty backlog: (0+1) * execTicks(90 s, 1) = 45 s <= 60 s, so
    // level 1 is the lowest that clears before the next capture.
    coordinator.consumeSlab({fleet::CohortCounters{}}, cohorts);
    EXPECT_EQ(cohorts[0].directive.baseLevel, 1);
    EXPECT_EQ(cohorts[0].directive.pressureLevel,
              fleet::kMaxDegradeLevel);
    EXPECT_EQ(cohorts[0].directive.occupancyHigh, 3u);

    // Mean occupancy 2: (2+1) * 22.5 s = 67.5 s > 60 s even at max
    // level, so the base clamps to kMaxDegradeLevel.
    fleet::CohortCounters backlog;
    backlog.occupancySum = 200;
    coordinator.consumeSlab({backlog}, cohorts);
    EXPECT_EQ(cohorts[0].directive.baseLevel,
              fleet::kMaxDegradeLevel);
}

TEST(FleetCoordinator, DelgadoShedsWhenMeanChargeIsLow)
{
    const fleet::FleetConfig config = stressConfig("delgado-famaey");
    const fleet::FleetCoordinator coordinator(config);
    std::vector<fleet::CohortState> cohorts(1);

    // Healthy fleet: full quality, but a per-device low-charge
    // pressure threshold at 30 % of usable capacity.
    fleet::CohortCounters healthy;
    healthy.chargeNanojoules = 100ull * 100000000ull; // 0.1 J mean
    coordinator.consumeSlab({healthy}, cohorts);
    EXPECT_EQ(cohorts[0].directive.baseLevel, 0);
    EXPECT_GT(cohorts[0].directive.chargeLowNano, 0u);

    // Starved fleet (mean charge ~0): shed at the base level too.
    coordinator.consumeSlab({fleet::CohortCounters{}}, cohorts);
    EXPECT_GE(cohorts[0].directive.baseLevel, 1);
}

TEST(FleetCoordinator, EachCohortRunsItsOwnPolicysRule)
{
    // Four cohorts, one slab of identical aggregates: each cohort's
    // directive is the one its own policy row's rule yields alone.
    fleet::FleetConfig config = stressConfig("greedy-fcfs");
    for (const char *policy : {"sjf-ibo", "zygarde", "delgado-famaey"}) {
        fleet::CohortConfig cohort = config.cohorts[0];
        cohort.name = std::string("c-") + policy;
        cohort.policy = policy;
        config.cohorts.push_back(cohort);
    }
    const fleet::FleetCoordinator coordinator(config);
    std::vector<fleet::CohortState> cohorts(4);

    fleet::CohortCounters slab;
    slab.dropsInteresting = 10;
    slab.occupancySum = 200; // mean occupancy 2 of capacity 4
    coordinator.consumeSlab({slab, slab, slab, slab}, cohorts);
    for (std::size_t c = 0; c < cohorts.size(); ++c) {
        SCOPED_TRACE(config.cohorts[c].policy);
        const fleet::FleetConfig alone =
            stressConfig(config.cohorts[c].policy.c_str());
        std::vector<fleet::CohortState> single(1);
        fleet::FleetCoordinator(alone).consumeSlab({slab}, single);
        EXPECT_EQ(cohorts[c].directive.baseLevel,
                  single[0].directive.baseLevel);
        EXPECT_EQ(cohorts[c].directive.pressureLevel,
                  single[0].directive.pressureLevel);
        EXPECT_EQ(cohorts[c].directive.occupancyHigh,
                  single[0].directive.occupancyHigh);
        EXPECT_EQ(cohorts[c].directive.chargeLowNano,
                  single[0].directive.chargeLowNano);
        EXPECT_EQ(cohorts[c].lastBase, single[0].lastBase);
    }
    // The four rules disagree on this slab, so the comparison tells
    // them apart: greedy stays at full quality, SJF+IBO escalates to
    // the keep-up level, Zygarde's backlog needs the maximum, and
    // Delgado & Famaey's charge floor sits above SJF+IBO's.
    EXPECT_EQ(cohorts[0].directive.baseLevel, 0);
    EXPECT_EQ(cohorts[1].directive.baseLevel, 1);
    EXPECT_EQ(cohorts[2].directive.baseLevel, fleet::kMaxDegradeLevel);
    EXPECT_GT(cohorts[3].directive.chargeLowNano,
              cohorts[1].directive.chargeLowNano);
}

} // namespace
