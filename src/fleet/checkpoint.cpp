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
putCounters(std::string &out, const CohortCounters &c)
{
    wire::putVarint(out, c.captures);
    wire::putVarint(out, c.missedCaptures);
    wire::putVarint(out, c.storedInputs);
    wire::putVarint(out, c.dropsInteresting);
    wire::putVarint(out, c.dropsUninteresting);
    wire::putVarint(out, c.jobsCompleted);
    wire::putVarint(out, c.degradedJobs);
    wire::putVarint(out, c.powerFailures);
    wire::putVarint(out, c.checkpointSaves);
    wire::putVarint(out, c.rechargeTicks);
    wire::putVarint(out, c.activeTicks);
    wire::putVarint(out, c.chargeNanojoules);
    wire::putVarint(out, c.wastedNanojoules);
    wire::putVarint(out, c.occupancySum);
    wire::putVarint(out, c.devicesOff);
}

bool
getCounters(wire::Reader &in, CohortCounters &c)
{
    return in.getVarint(c.captures) && in.getVarint(c.missedCaptures) &&
        in.getVarint(c.storedInputs) &&
        in.getVarint(c.dropsInteresting) &&
        in.getVarint(c.dropsUninteresting) &&
        in.getVarint(c.jobsCompleted) && in.getVarint(c.degradedJobs) &&
        in.getVarint(c.powerFailures) &&
        in.getVarint(c.checkpointSaves) &&
        in.getVarint(c.rechargeTicks) && in.getVarint(c.activeTicks) &&
        in.getVarint(c.chargeNanojoules) &&
        in.getVarint(c.wastedNanojoules) &&
        in.getVarint(c.occupancySum) && in.getVarint(c.devicesOff);
}

void
putEvent(std::string &out, const obs::Event &event)
{
    out.push_back(static_cast<char>(event.kind));
    wire::putVarint(out, static_cast<std::uint64_t>(event.tick));
    wire::putVarint(out, event.id);
    wire::putZigzag(out, event.value);
    wire::putZigzag(out, event.extra);
    wire::putDouble(out, event.a);
    wire::putDouble(out, event.b);
    wire::putFixed32(out, event.flags);
    wire::putFixed32(out, event.options);
}

bool
getEvent(wire::Reader &in, obs::Event &event)
{
    std::uint8_t kind = 0;
    std::uint64_t tick = 0;
    if (!in.getByte(kind) || kind >= obs::kEventKindCount ||
        !in.getVarint(tick) || !in.getVarint(event.id) ||
        !in.getZigzag(event.value) || !in.getZigzag(event.extra) ||
        !in.getDouble(event.a) || !in.getDouble(event.b) ||
        !in.getFixed32(event.flags) || !in.getFixed32(event.options))
        return false;
    event.kind = static_cast<obs::EventKind>(kind);
    event.tick = static_cast<Tick>(tick);
    return true;
}

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

} // namespace

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
encodeFleetState(const FleetSnapshot &snap,
                 std::uint64_t fleetFingerprint_)
{
    std::string out;
    wire::putVarint(out, snap.shards);
    wire::putVarint(out, snap.coordinator.size());
    for (const FleetCoordinator::CohortState &c : snap.coordinator) {
        out.push_back(static_cast<char>(c.directive.baseLevel));
        out.push_back(static_cast<char>(c.directive.pressureLevel));
        wire::putFixed32(out, c.directive.occupancyHigh);
        wire::putFixed64(out, c.directive.chargeLowNano);
        out.push_back(static_cast<char>(c.lastBase));
    }
    for (const CohortCounters &c : snap.cohortTotals)
        putCounters(out, c);
    for (const CohortCounters &c : snap.rollupBase)
        putCounters(out, c);
    for (const CohortCounters &s : snap.shardTotals)
        putCounters(out, s);
    wire::putVarint(out, snap.events.size());
    for (const obs::Event &event : snap.events)
        putEvent(out, event);

    std::string section;
    for (unsigned s = 0; s < snap.shards; ++s) {
        section.clear();
        wire::putFixed64(section,
                         shardFingerprint(fleetFingerprint_, s));
        for (const CohortBlock &block : snap.states[s].blocks)
            putBlock(section, block);
        wire::putBytes(out, section);
        wire::putFixed32(out, wire::crc32(section));
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
    wire::Reader in(blob);

    std::uint64_t storedShards = 0;
    std::uint64_t storedCohorts = 0;
    if (!in.getVarint(storedShards) || !in.getVarint(storedCohorts)) {
        error = "truncated fleet state (shard/cohort header)";
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
    for (FleetCoordinator::CohortState &c : snap.coordinator) {
        std::uint8_t base = 0;
        std::uint8_t pressure = 0;
        std::uint8_t lastBase = 0;
        if (!in.getByte(base) || !in.getByte(pressure) ||
            !in.getFixed32(c.directive.occupancyHigh) ||
            !in.getFixed64(c.directive.chargeLowNano) ||
            !in.getByte(lastBase)) {
            error = "truncated fleet state (coordinator directives)";
            return false;
        }
        c.directive.baseLevel = base;
        c.directive.pressureLevel = pressure;
        c.lastBase = lastBase;
    }

    snap.cohortTotals.resize(cohortCount);
    snap.rollupBase.resize(cohortCount);
    for (CohortCounters &c : snap.cohortTotals) {
        if (!getCounters(in, c)) {
            error = "truncated fleet state (cohort totals)";
            return false;
        }
    }
    for (CohortCounters &c : snap.rollupBase) {
        if (!getCounters(in, c)) {
            error = "truncated fleet state (rollup baseline)";
            return false;
        }
    }
    snap.shardTotals.resize(snap.shards);
    for (CohortCounters &s : snap.shardTotals) {
        if (!getCounters(in, s)) {
            error = "truncated fleet state (shard totals)";
            return false;
        }
    }

    std::uint64_t eventCount = 0;
    if (!in.getVarint(eventCount) || eventCount > in.remaining()) {
        error = "truncated fleet state (event count)";
        return false;
    }
    snap.events.resize(static_cast<std::size_t>(eventCount));
    for (obs::Event &event : snap.events) {
        if (!getEvent(in, event)) {
            error = "malformed fleet state (replay event)";
            return false;
        }
    }

    snap.states.resize(snap.shards);
    std::string section;
    for (unsigned s = 0; s < snap.shards; ++s) {
        std::uint32_t crc = 0;
        if (!in.getBytes(section) || !in.getFixed32(crc)) {
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
    if (!in.atEnd()) {
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
