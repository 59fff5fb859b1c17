/**
 * @file
 * Fleet barrier snapshots (DESIGN.md section 17): the byte
 * serialization of everything mutable in a fleet run at a
 * coordinator barrier, plus the fleet-level fingerprint and the
 * re-sharding rules that let a snapshot taken under one shard count
 * resume under another.
 *
 * A snapshot is the *state* payload of one QZCK record in a
 * checkpoint stream (sim/checkpoint.hpp); the record's boundaryTick
 * is the barrier tick. Inside the blob, every shard's device columns
 * are a self-delimited section with its own fingerprint and CRC-32C,
 * so a flipped bit names the shard it hit instead of surfacing as a
 * generic decode failure.
 *
 * The fleet fingerprint deliberately excludes the shard count (block
 * device ranges are re-derived from the target count on restore) and
 * the checkpoint cadence (saving draws no randomness and mutates
 * nothing, so cadence never shapes the run's evolution).
 */

#ifndef QUETZAL_FLEET_CHECKPOINT_HPP
#define QUETZAL_FLEET_CHECKPOINT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/coordinator.hpp"
#include "fleet/fleet.hpp"
#include "fleet/state.hpp"
#include "obs/event.hpp"
#include "util/types.hpp"

namespace quetzal {
namespace fleet {

/**
 * Full mutable state of a fleet run at a coordinator barrier: the
 * coordinator's per-cohort rule state, the running aggregates, the
 * rollup baseline, the per-shard totals, every run-sink event
 * emitted so far (replayed on restore so a resumed run's trace is
 * the straight run's trace), and the per-shard device columns.
 */
struct FleetSnapshot
{
    /** Shard count the snapshot was taken under. */
    unsigned shards = 0;
    std::vector<FleetCoordinator::CohortState> coordinator;
    std::vector<CohortCounters> cohortTotals;
    std::vector<CohortCounters> rollupBase;
    std::vector<CohortCounters> shardTotals;
    std::vector<obs::Event> events;
    std::vector<ShardState> states;
};

/**
 * Hash of every fleet knob that shapes the run's evolution (FNV-1a
 * 64 over a canonical wire serialization). The shard count and the
 * checkpoint cadence are deliberately absent: both are
 * byte-identical by contract, so a snapshot taken under one resumes
 * under any other.
 */
std::uint64_t fleetFingerprint(const FleetConfig &config);

/** Per-shard section fingerprint inside a snapshot blob. */
std::uint64_t shardFingerprint(std::uint64_t fleetFingerprint,
                               unsigned shard);

/**
 * True when `tick` is a coordinator barrier of this configuration:
 * a positive slab boundary at or before the horizon (the final,
 * possibly partial, slab ends at the horizon itself).
 */
bool validBarrierTick(const FleetConfig &config, Tick tick);

/** Serialize a snapshot into a QZCK state payload. Takes the snapshot
 *  by non-const reference because one walk both encodes and decodes
 *  the header fields; encoding only reads it. */
std::string encodeFleetState(FleetSnapshot &snap,
                             std::uint64_t fleetFingerprint);

/**
 * Parse and validate a snapshot blob against the resuming
 * configuration. Returns false with a named diagnostic in `error`
 * on truncation, a cohort-count or device-range mismatch, a shard
 * section whose fingerprint or CRC does not match, an out-of-range
 * event kind, device value (phase, timer, column width, occupancy,
 * level) or coordinator level, or trailing bytes.
 */
bool decodeFleetState(const std::string &blob,
                      const FleetConfig &config, FleetSnapshot &snap,
                      std::string &error);

/**
 * Map a decoded snapshot onto a target shard layout. Device columns
 * are concatenated per cohort in stored-shard order (blocks are
 * contiguous global ranges) and re-split by the target count's
 * range formula. Per-shard totals remap by
 * `target[s * targetShards / storedShards] += stored[s]` — the
 * shard-sum == fleetTotals identity is preserved exactly, and the
 * map is the identity when the counts match; across counts the
 * gauge fields self-correct at the next barrier.
 */
void reshardSnapshot(const FleetSnapshot &stored,
                     const FleetConfig &config,
                     std::vector<ShardState> &states,
                     std::vector<CohortCounters> &shardTotals);

} // namespace fleet
} // namespace quetzal

#endif // QUETZAL_FLEET_CHECKPOINT_HPP
