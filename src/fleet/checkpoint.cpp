/**
 * @file
 * Fleet snapshot serialization (DESIGN.md section 17).
 *
 * Blob layout (all wire primitives, util/wire.hpp):
 *
 *   varint storedShards | varint cohortCount
 *   per cohort: directive {baseLevel, pressureLevel, occupancyHigh,
 *               chargeLowNano} + lastBase
 *   per cohort: cohortTotals | per cohort: rollupBase
 *   per shard:  shardTotals
 *   varint eventCount | per event: kind tick id value extra a b
 *               flags options
 *   per shard:  length-prefixed section + fixed32 crc32(section)
 *     section := fixed64 shardFingerprint
 *                per cohort: firstDevice count
 *                  per device: charge taskTicksLeft phaseTicksLeft
 *                              cursor phase occupancy level scratch
 *
 * The fields ahead of the shard sections are one walk (walkHeader)
 * shared by encode and decode; the device columns keep raw-store
 * encoders, since the barrier snapshot is the fleet's checkpoint tax.
 * Decode validates structure against the resuming configuration —
 * cohort count, per-shard device ranges (re-derived from the stored
 * shard count), section fingerprints and CRCs — before anything is
 * applied, so every corruption class dies with a named diagnostic.
 */

#include "fleet/checkpoint.hpp"

#include "util/logging.hpp"
#include "util/wire.hpp"

namespace quetzal {
namespace fleet {

namespace wire = util::wire;

namespace {

void
putBlock(std::string &out, const CohortBlock &block)
{
    wire::putVarint(out, block.firstDevice);
    wire::putVarint(out, block.size());
    // Device records encode with raw stores into a stack batch that
    // is appended in one call, instead of a capacity check per byte
    // (the barrier snapshot is serial, so its cost is the fleet's
    // checkpoint tax). Worst case per device: one fixed64, four
    // varints of at most 10 bytes and three single bytes.
    constexpr std::size_t kDeviceMax = 8 + 4 * 10 + 3;
    char batch[64 * kDeviceMax];
    char *p = batch;
    for (std::size_t i = 0; i < block.size(); ++i) {
        p = wire::putDoubleRaw(p, block.charge[i]);
        p = wire::putZigzagRaw(p, block.taskTicksLeft[i]);
        p = wire::putZigzagRaw(p, block.phaseTicksLeft[i]);
        p = wire::putVarintRaw(p, block.cursor[i]);
        *p++ = static_cast<char>(block.phase[i]);
        p = wire::putVarintRaw(p, block.occupancy[i]);
        *p++ = static_cast<char>(block.level[i]);
        *p++ = static_cast<char>(block.scratch[i]);
        if (static_cast<std::size_t>(p - batch) + kDeviceMax >
            sizeof batch) {
            out.append(batch, p);
            p = batch;
        }
    }
    out.append(batch, p);
}

bool
getBlock(wire::Reader &in, CohortBlock &block, std::size_t expectLo,
         std::size_t expectCount)
{
    std::uint64_t first = 0;
    std::uint64_t count = 0;
    if (!in.getVarint(first) || !in.getVarint(count))
        return false;
    if (first != expectLo || count != expectCount)
        return false;
    block.init(static_cast<std::size_t>(first),
               static_cast<std::size_t>(count), 0.0);
    for (std::uint64_t i = 0; i < count; ++i) {
        std::int64_t taskLeft = 0;
        std::int64_t phaseLeft = 0;
        std::uint64_t cursor = 0;
        std::uint8_t phase = 0;
        std::uint64_t occupancy = 0;
        std::uint8_t level = 0;
        std::uint8_t scratch = 0;
        if (!in.getDouble(block.charge[i]) || !in.getZigzag(taskLeft) ||
            !in.getZigzag(phaseLeft) || !in.getVarint(cursor) ||
            !in.getByte(phase) || !in.getVarint(occupancy) ||
            !in.getByte(level) || !in.getByte(scratch))
            return false;
        block.taskTicksLeft[i] = taskLeft;
        block.phaseTicksLeft[i] = static_cast<std::int32_t>(phaseLeft);
        block.cursor[i] = static_cast<std::uint32_t>(cursor);
        block.phase[i] = phase;
        block.occupancy[i] = static_cast<std::uint16_t>(occupancy);
        block.level[i] = level;
        block.scratch[i] = scratch;
    }
    return true;
}

/** SplitMix64 finalizer (the same mix the engine hashes with). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * The fields ahead of the shard sections, in wire order, for both
 * directions. `cohortCount` is the snapshot's own on save and the
 * resuming configuration's on decode, where the stored counts are
 * checked against it with named diagnostics.
 */
bool
walkHeader(wire::Archive &ar, FleetSnapshot &snap,
           std::size_t cohortCount, std::string &error)
{
    ar.section("truncated fleet state (shard/cohort header)");
    std::uint64_t storedShards = snap.shards;
    std::uint64_t storedCohorts = cohortCount;
    ar.varint(storedShards);
    ar.varint(storedCohorts);
    if (!ar.ok()) {
        error = ar.failure();
        return false;
    }
    if (storedShards == 0 || storedShards > 65536) {
        error = util::msg("fleet state names an invalid shard count (",
                          storedShards, ")");
        return false;
    }
    if (storedCohorts != cohortCount) {
        error = util::msg("fleet state cohort count mismatch (snapshot "
                          "has ", storedCohorts,
                          ", resuming configuration has ", cohortCount,
                          ")");
        return false;
    }
    snap.shards = static_cast<unsigned>(storedShards);

    snap.coordinator.resize(cohortCount);
    snap.cohortTotals.resize(cohortCount);
    snap.rollupBase.resize(cohortCount);
    snap.shardTotals.resize(snap.shards);
    ar.section("truncated fleet state (coordinator directives)");
    for (FleetCoordinator::CohortState &c : snap.coordinator)
        c.walk(ar);
    ar.section("truncated fleet state (cohort totals)");
    for (CohortCounters &c : snap.cohortTotals)
        c.walk(ar);
    ar.section("truncated fleet state (rollup baseline)");
    for (CohortCounters &c : snap.rollupBase)
        c.walk(ar);
    ar.section("truncated fleet state (shard totals)");
    for (CohortCounters &s : snap.shardTotals)
        s.walk(ar);
    ar.section("truncated fleet state (event count)");
    snap.events.resize(ar.count(snap.events.size()));
    ar.section("malformed fleet state (replay event)");
    for (obs::Event &event : snap.events)
        event.walk(ar);
    if (!ar.ok()) {
        error = ar.failure();
        return false;
    }
    return true;
}

} // namespace

void
CohortCounters::walk(wire::Archive &ar)
{
    for (const CohortCounterField &field : kCohortCounterFields)
        ar.varint(this->*field.member);
}

void
FleetCoordinator::CohortState::walk(wire::Archive &ar)
{
    ar.byte(directive.baseLevel);
    ar.byte(directive.pressureLevel);
    ar.fixed32(directive.occupancyHigh);
    ar.fixed64(directive.chargeLowNano);
    ar.byte(lastBase);
}

std::uint64_t
fleetFingerprint(const FleetConfig &config)
{
    std::string bytes;
    wire::putVarint(bytes, static_cast<std::uint64_t>(config.slabTicks));
    wire::putVarint(bytes,
                    static_cast<std::uint64_t>(config.horizonTicks));
    wire::putVarint(bytes,
                    static_cast<std::uint64_t>(config.rollupTicks));
    wire::putDouble(bytes, config.solarSampleSeconds);
    wire::putVarint(bytes, config.cohorts.size());
    for (const CohortConfig &cohort : config.cohorts) {
        wire::putBytes(bytes, cohort.name);
        wire::putVarint(bytes, cohort.devices);
        wire::putBytes(bytes, cohort.policy);
        wire::putVarint(bytes, static_cast<std::uint64_t>(cohort.device));
        wire::putVarint(bytes,
                        static_cast<std::uint64_t>(cohort.environment));
        wire::putFixed64(bytes, cohort.seed);
        wire::putZigzag(bytes, cohort.harvesterCells);
        wire::putVarint(bytes,
                        static_cast<std::uint64_t>(cohort.capturePeriod));
        wire::putVarint(bytes, cohort.bufferCapacity);
        wire::putVarint(bytes,
                        static_cast<std::uint64_t>(cohort.taskTicks));
        wire::putDouble(bytes, cohort.taskPower);
    }

    // FNV-1a 64.
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::uint64_t
shardFingerprint(std::uint64_t fleetFingerprint_, unsigned shard)
{
    return fleetFingerprint_ ^ mix64(shard + 1);
}

bool
validBarrierTick(const FleetConfig &config, Tick tick)
{
    return tick > 0 && tick <= config.horizonTicks &&
        (tick % config.slabTicks == 0 || tick == config.horizonTicks);
}

std::string
encodeFleetState(FleetSnapshot &snap, std::uint64_t fleetFingerprint_)
{
    std::string out;
    wire::Archive ar(out);
    std::string error;
    (void)walkHeader(ar, snap, snap.coordinator.size(), error);

    std::string section;
    for (unsigned s = 0; s < snap.shards; ++s) {
        section.clear();
        wire::putFixed64(section,
                         shardFingerprint(fleetFingerprint_, s));
        for (const CohortBlock &block : snap.states[s].blocks)
            putBlock(section, block);
        std::uint32_t crc = wire::crc32(section);
        ar.bytes(section);
        ar.fixed32(crc);
    }
    return out;
}

bool
decodeFleetState(const std::string &blob, const FleetConfig &config,
                 FleetSnapshot &snap, std::string &error)
{
    snap = FleetSnapshot{};
    const std::uint64_t fp = fleetFingerprint(config);
    const std::size_t cohortCount = config.cohorts.size();
    wire::Archive ar{wire::Reader(blob)};
    if (!walkHeader(ar, snap, cohortCount, error))
        return false;

    snap.states.resize(snap.shards);
    std::string section;
    for (unsigned s = 0; s < snap.shards; ++s) {
        std::uint32_t crc = 0;
        ar.bytes(section);
        ar.fixed32(crc);
        if (!ar.ok()) {
            error = util::msg("truncated fleet state (shard section ",
                              s, ")");
            return false;
        }
        if (wire::crc32(section) != crc) {
            error = util::msg("shard section CRC mismatch (shard ", s,
                              "; corrupt snapshot)");
            return false;
        }
        wire::Reader sec(section);
        std::uint64_t sectionFp = 0;
        if (!sec.getFixed64(sectionFp) ||
            sectionFp != shardFingerprint(fp, s)) {
            error = util::msg("shard section fingerprint mismatch "
                              "(shard ", s,
                              "); resume requires the identical "
                              "configuration");
            return false;
        }
        snap.states[s].blocks.resize(cohortCount);
        for (std::size_t c = 0; c < cohortCount; ++c) {
            const std::size_t n = config.cohorts[c].devices;
            const std::size_t lo = n * s / snap.shards;
            const std::size_t hi = n * (s + 1) / snap.shards;
            if (!getBlock(sec, snap.states[s].blocks[c], lo, hi - lo)) {
                error = util::msg("shard device range mismatch (shard ",
                                  s, ", cohort ", c,
                                  "): snapshot does not partition this "
                                  "configuration's devices");
                return false;
            }
        }
        if (!sec.atEnd()) {
            error = util::msg("trailing bytes in fleet state shard "
                              "section ", s);
            return false;
        }
    }
    if (!ar.atEnd()) {
        error = "trailing bytes after fleet state";
        return false;
    }
    return true;
}

void
reshardSnapshot(const FleetSnapshot &stored, const FleetConfig &config,
                std::vector<ShardState> &states,
                std::vector<CohortCounters> &shardTotals)
{
    const std::size_t cohortCount = config.cohorts.size();
    const unsigned target = config.shards;

    // Concatenate each cohort's columns across stored shards (blocks
    // are contiguous global ranges in shard order), then re-split by
    // the target count's range formula. The copy is per-resume, not
    // per-slab, so clarity beats zero-copy here.
    std::vector<CohortBlock> whole(cohortCount);
    for (std::size_t c = 0; c < cohortCount; ++c) {
        CohortBlock &all = whole[c];
        all.init(0, config.cohorts[c].devices, 0.0);
        std::size_t at = 0;
        for (unsigned s = 0; s < stored.shards; ++s) {
            const CohortBlock &block = stored.states[s].blocks[c];
            for (std::size_t i = 0; i < block.size(); ++i, ++at) {
                all.charge[at] = block.charge[i];
                all.taskTicksLeft[at] = block.taskTicksLeft[i];
                all.phaseTicksLeft[at] = block.phaseTicksLeft[i];
                all.cursor[at] = block.cursor[i];
                all.phase[at] = block.phase[i];
                all.occupancy[at] = block.occupancy[i];
                all.level[at] = block.level[i];
                all.scratch[at] = block.scratch[i];
            }
        }
    }

    states.assign(target, ShardState{});
    for (unsigned s = 0; s < target; ++s) {
        states[s].blocks.resize(cohortCount);
        for (std::size_t c = 0; c < cohortCount; ++c) {
            const std::size_t n = config.cohorts[c].devices;
            const std::size_t lo = n * s / target;
            const std::size_t hi = n * (s + 1) / target;
            CohortBlock &block = states[s].blocks[c];
            block.init(lo, hi - lo, 0.0);
            const CohortBlock &all = whole[c];
            for (std::size_t i = 0; i < hi - lo; ++i) {
                block.charge[i] = all.charge[lo + i];
                block.taskTicksLeft[i] = all.taskTicksLeft[lo + i];
                block.phaseTicksLeft[i] = all.phaseTicksLeft[lo + i];
                block.cursor[i] = all.cursor[lo + i];
                block.phase[i] = all.phase[lo + i];
                block.occupancy[i] = all.occupancy[lo + i];
                block.level[i] = all.level[lo + i];
                block.scratch[i] = all.scratch[lo + i];
            }
        }
    }

    shardTotals.assign(target, CohortCounters{});
    for (unsigned s = 0; s < stored.shards; ++s)
        shardTotals[static_cast<std::size_t>(s) * target / stored.shards]
            .add(stored.shardTotals[s]);
}

} // namespace fleet
} // namespace quetzal
