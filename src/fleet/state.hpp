/**
 * @file
 * The fleet run's mutable state: the struct-of-arrays per-device
 * columns and the FleetState that holds them with everything else a
 * run carries from one coordinator barrier to the next.
 *
 * One heap sim::Simulator per device would cost kilobytes each; a
 * million devices only fit when the persistent per-device state is
 * the handful of scalars sim::Device::State actually needs between
 * time slabs. Each shard owns one CohortBlock per cohort: parallel
 * vectors indexed by the device's position inside the block, ~28
 * bytes per device all in. Everything else a device needs while it
 * advances (profile, power trace, camera costs) is cohort-constant
 * and lives once per cohort, not per device.
 *
 * runFleet advances one FleetState in place, encodes it in place at
 * each barrier and, on resume, starts from one decoded from a
 * checkpoint record (DESIGN.md sections 15 and 17).
 */

#ifndef QUETZAL_FLEET_STATE_HPP
#define QUETZAL_FLEET_STATE_HPP

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "fleet/coordinator.hpp"
#include "fleet/fleet.hpp"
#include "obs/event.hpp"
#include "util/types.hpp"

namespace quetzal {
namespace fleet {

/**
 * The devices of one cohort assigned to one shard. Device `i` of a
 * block is global device index firstDevice + i of its cohort —
 * capture offsets and drop classification hash the *global* index,
 * which is what makes per-device evolution independent of the shard
 * count.
 */
struct CohortBlock
{
    /** Global (cohort-wide) index of this block's first device. */
    std::size_t firstDevice = 0;

    /** @name Persisted sim::Device::State fields */
    /// @{
    std::vector<double> charge;              ///< stored joules
    std::vector<std::int64_t> taskTicksLeft; ///< in-flight job
    std::vector<std::int32_t> phaseTicksLeft;///< save/restore timer
    std::vector<std::uint32_t> cursor;       ///< power-trace segment
    std::vector<std::uint8_t> phase;         ///< sim::DevicePhase
    /// @}

    /** @name Fleet-level per-device state */
    /// @{
    std::vector<std::uint16_t> occupancy;    ///< buffered inputs
    std::vector<std::uint8_t> level;         ///< last assigned level
    std::vector<std::uint8_t> scratch;       ///< recovery cooldown
    /// @}

    std::size_t size() const { return charge.size(); }

    /** Every per-device column, in wire order. init, bytes and
     *  copyDevices walk this one list, so a new column is added
     *  here and nowhere else. */
    auto
    columns()
    {
        return std::tie(charge, taskTicksLeft, phaseTicksLeft, cursor,
                        phase, occupancy, level, scratch);
    }
    auto
    columns() const
    {
        return std::tie(charge, taskTicksLeft, phaseTicksLeft, cursor,
                        phase, occupancy, level, scratch);
    }

    /** Allocate `count` devices in their deployment state: full
     *  charge, idle, empty buffer, full quality. */
    void
    init(std::size_t first, std::size_t count, double fullCharge)
    {
        firstDevice = first;
        std::apply([count](auto &...column) {
            (column.assign(count, 0), ...);
        }, columns());
        std::fill(charge.begin(), charge.end(), fullCharge);
    }

    /** Bytes of per-device state this block holds. */
    std::size_t
    bytes() const
    {
        return std::apply([](const auto &...column) {
            return ((column.size() * sizeof(column.front())) + ...);
        }, columns());
    }

    /** Copy devices [at, at + count) of `from` over this block's
     *  devices [to, to + count), every column. */
    void
    copyDevices(std::size_t to, const CohortBlock &from, std::size_t at,
                std::size_t count)
    {
        auto into = columns();
        const auto source = from.columns();
        [&]<std::size_t... I>(std::index_sequence<I...>) {
            (std::copy_n(std::get<I>(source).begin() + at, count,
                         std::get<I>(into).begin() + to),
             ...);
        }(std::make_index_sequence<std::tuple_size_v<decltype(into)>>{});
    }
};

/** One shard: a CohortBlock per cohort (same order as the config). */
struct ShardState
{
    std::vector<CohortBlock> blocks;

    std::size_t
    bytes() const
    {
        std::size_t total = 0;
        for (const CohortBlock &block : blocks)
            total += block.bytes();
        return total;
    }
};

/**
 * Everything mutable in a fleet run, between coordinator barriers:
 * runFleet advances one of these, encodeFleetState serializes it in
 * place at a barrier, and decodeFleetState rebuilds it for a resume.
 */
struct FleetState
{
    /** Shard count the device columns are split under. */
    unsigned shards = 0;
    /** The coordinator's rule state, one per cohort. */
    std::vector<CohortState> coordinator;
    /** Running per-cohort totals (gauges as of the last slab end). */
    std::vector<CohortCounters> cohortTotals;
    /** cohortTotals at the last rollup. */
    std::vector<CohortCounters> rollupBase;
    /** Running per-shard totals, summed over cohorts. */
    std::vector<CohortCounters> shardTotals;
    /** Every run-sink event emitted so far, kept while the run
     *  checkpoints and replayed into the run sink on resume, so a
     *  resumed run's trace is the straight run's. */
    std::vector<obs::Event> events;
    /** Per-shard device columns. */
    std::vector<ShardState> devices;
};

} // namespace fleet
} // namespace quetzal

#endif // QUETZAL_FLEET_STATE_HPP
