/**
 * @file
 * Fleet barrier snapshots (DESIGN.md section 17): the byte
 * serialization of a fleet run's FleetState at a coordinator
 * barrier, plus the fleet-level fingerprint and the re-sharding
 * rules that let a snapshot taken under one shard count resume
 * under another.
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

#include "fleet/fleet.hpp"
#include "fleet/state.hpp"
#include "util/types.hpp"

namespace quetzal {
namespace fleet {

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

/** Barrier epoch of a slab end (1-based; the final, possibly
 *  partial, slab rounds up to its own epoch). */
std::uint64_t barrierEpoch(const FleetConfig &config, Tick slabEnd);

/**
 * Serialize `state` into `out`, a QZCK state payload. Both strings
 * are cleared and refilled, so a caller that keeps them across
 * barriers reuses their capacity; `section` is scratch for one
 * shard section. Takes the state by non-const reference because one
 * walk both encodes and decodes the header fields; encoding only
 * reads it.
 */
void encodeFleetState(FleetState &state, std::uint64_t fleetFingerprint,
                      std::string &out, std::string &section);

/**
 * Parse and validate a snapshot blob against the resuming
 * configuration into `state`, under the shard count it was taken
 * with. Returns false with a named diagnostic in `error` on
 * truncation, a cohort-count or device-range mismatch, a shard
 * section whose fingerprint or CRC does not match, an out-of-range
 * event kind, device value (phase, timer, column width, occupancy,
 * level) or coordinator level, or trailing bytes.
 */
bool decodeFleetState(const std::string &blob,
                      const FleetConfig &config, FleetState &state,
                      std::string &error);

/**
 * Re-split a decoded state's device columns and shard totals for
 * config.shards, in place. Blocks are contiguous global ranges in
 * shard order, so each target block copies the stored blocks it
 * overlaps. Per-shard totals remap by
 * `target[s * targetShards / storedShards] += stored[s]` — the
 * shard-sum == fleetTotals identity is preserved exactly, and the
 * map is the identity when the counts match; across counts the
 * gauge fields self-correct at the next barrier.
 */
void reshardFleetState(FleetState &state, const FleetConfig &config);

} // namespace fleet
} // namespace quetzal

#endif // QUETZAL_FLEET_CHECKPOINT_HPP
