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
 * shard count), section fingerprints and CRCs, and every device and
 * coordinator value against its column and its legal range — before
 * anything is applied, so every corruption class dies with a named
 * diagnostic.
 */

#include "fleet/checkpoint.hpp"

#include <algorithm>

#include "sim/device.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
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

/**
 * Decode shard `s`'s block of cohort `c`, which must hold devices
 * [expectLo, expectLo + expectCount). A CRC-valid section can still
 * carry state no run produces, so every value must fit its column
 * and be resumable: a known phase, non-negative timers, occupancy
 * within the cohort's buffer and an assignable degradation level.
 */
bool
getBlock(wire::Reader &in, CohortBlock &block, unsigned s, std::size_t c,
         std::size_t expectLo, std::size_t expectCount,
         std::uint32_t capacity, std::string &error)
{
    std::uint64_t first = 0;
    std::uint64_t count = 0;
    if (!in.getVarint(first) || !in.getVarint(count) ||
        first != expectLo || count != expectCount) {
        error = util::msg("shard device range mismatch (shard ", s,
                          ", cohort ", c,
                          "): snapshot does not partition this "
                          "configuration's devices");
        return false;
    }
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
            !in.getByte(level) || !in.getByte(scratch)) {
            error = util::msg("truncated fleet state (shard ", s,
                              ", cohort ", c, " device records)");
            return false;
        }
        const char *fault = nullptr;
        if (phase > static_cast<std::uint8_t>(sim::DevicePhase::Restoring))
            fault = "unknown device phase";
        else if (taskLeft < 0 || phaseLeft < 0)
            fault = "negative task or phase timer";
        else if (phaseLeft > INT32_MAX || cursor > UINT32_MAX ||
                 occupancy > UINT16_MAX)
            fault = "value wider than its column";
        else if (occupancy > capacity)
            fault = "occupancy above the cohort's buffer capacity";
        else if (level > kMaxDegradeLevel)
            fault = "degradation level above the maximum";
        if (fault != nullptr) {
            error = util::msg("invalid device state (shard ", s,
                              ", cohort ", c, ", device ", first + i,
                              "): ", fault);
            return false;
        }
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

/**
 * The fields ahead of the shard sections, in wire order, for both
 * directions. `cohortCount` is the snapshot's own on save and the
 * resuming configuration's on decode, where the stored counts are
 * checked against it with named diagnostics.
 */
bool
walkHeader(wire::Archive &ar, FleetState &state,
           std::size_t cohortCount, std::string &error)
{
    ar.section("truncated fleet state (shard/cohort header)");
    std::uint64_t storedShards = state.shards;
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
    state.shards = static_cast<unsigned>(storedShards);

    state.coordinator.resize(cohortCount);
    state.cohortTotals.resize(cohortCount);
    state.rollupBase.resize(cohortCount);
    state.shardTotals.resize(state.shards);
    ar.section("truncated fleet state (coordinator directives)");
    for (CohortState &c : state.coordinator)
        c.walk(ar);
    ar.section("truncated fleet state (cohort totals)");
    for (CohortCounters &c : state.cohortTotals)
        c.walk(ar);
    ar.section("truncated fleet state (rollup baseline)");
    for (CohortCounters &c : state.rollupBase)
        c.walk(ar);
    ar.section("truncated fleet state (shard totals)");
    for (CohortCounters &s : state.shardTotals)
        s.walk(ar);
    ar.section("truncated fleet state (event count)");
    state.events.resize(ar.count(state.events.size()));
    ar.section("malformed fleet state (replay event)");
    for (obs::Event &event : state.events)
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
CohortState::walk(wire::Archive &ar)
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

    return wire::fnv1a64(bytes);
}

std::uint64_t
shardFingerprint(std::uint64_t fleetFingerprint_, unsigned shard)
{
    return fleetFingerprint_ ^ util::mix64(shard + 1);
}

bool
validBarrierTick(const FleetConfig &config, Tick tick)
{
    return tick > 0 && tick <= config.horizonTicks &&
        (tick % config.slabTicks == 0 || tick == config.horizonTicks);
}

std::uint64_t
barrierEpoch(const FleetConfig &config, Tick slabEnd)
{
    return static_cast<std::uint64_t>(
        (slabEnd + config.slabTicks - 1) / config.slabTicks);
}

void
encodeFleetState(FleetState &state, std::uint64_t fleetFingerprint_,
                 std::string &out, std::string &section)
{
    out.clear();
    wire::Archive ar(out);
    std::string error;
    (void)walkHeader(ar, state, state.coordinator.size(), error);

    for (unsigned s = 0; s < state.shards; ++s) {
        section.clear();
        wire::putFixed64(section,
                         shardFingerprint(fleetFingerprint_, s));
        for (const CohortBlock &block : state.devices[s].blocks)
            putBlock(section, block);
        std::uint32_t crc = wire::crc32(section);
        ar.bytes(section);
        ar.fixed32(crc);
    }
}

bool
decodeFleetState(const std::string &blob, const FleetConfig &config,
                 FleetState &state, std::string &error)
{
    state = FleetState{};
    const std::uint64_t fp = fleetFingerprint(config);
    const std::size_t cohortCount = config.cohorts.size();
    wire::Archive ar{wire::Reader(blob)};
    if (!walkHeader(ar, state, cohortCount, error))
        return false;
    // Levels shift the job length (execTicks), so one past the
    // maximum would be a shift the engine never makes.
    for (std::size_t c = 0; c < cohortCount; ++c) {
        const CohortState &cohort = state.coordinator[c];
        if (cohort.directive.baseLevel > kMaxDegradeLevel ||
            cohort.directive.pressureLevel > kMaxDegradeLevel ||
            cohort.lastBase > kMaxDegradeLevel) {
            error = util::msg("invalid coordinator state (cohort ", c,
                              "): degradation level above the maximum");
            return false;
        }
    }

    state.devices.resize(state.shards);
    std::string section;
    for (unsigned s = 0; s < state.shards; ++s) {
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
        state.devices[s].blocks.resize(cohortCount);
        for (std::size_t c = 0; c < cohortCount; ++c) {
            const std::size_t n = config.cohorts[c].devices;
            const std::size_t lo = n * s / state.shards;
            const std::size_t hi = n * (s + 1) / state.shards;
            if (!getBlock(sec, state.devices[s].blocks[c], s, c, lo,
                          hi - lo, config.cohorts[c].bufferCapacity,
                          error))
                return false;
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
reshardFleetState(FleetState &state, const FleetConfig &config)
{
    const unsigned stored = state.shards;
    const unsigned target = config.shards;
    if (stored == target)
        return;

    std::vector<ShardState> devices(target);
    for (unsigned s = 0; s < target; ++s) {
        devices[s].blocks.resize(config.cohorts.size());
        for (std::size_t c = 0; c < config.cohorts.size(); ++c) {
            const std::size_t n = config.cohorts[c].devices;
            const std::size_t lo = n * s / target;
            const std::size_t hi = n * (s + 1) / target;
            CohortBlock &block = devices[s].blocks[c];
            block.init(lo, hi - lo, 0.0);
            for (const ShardState &shard : state.devices) {
                const CohortBlock &from = shard.blocks[c];
                const std::size_t begin = std::max(lo, from.firstDevice);
                const std::size_t end =
                    std::min(hi, from.firstDevice + from.size());
                if (begin < end)
                    block.copyDevices(begin - lo, from,
                                      begin - from.firstDevice,
                                      end - begin);
            }
        }
    }
    state.devices = std::move(devices);

    std::vector<CohortCounters> shardTotals(target);
    for (unsigned s = 0; s < stored; ++s)
        shardTotals[static_cast<std::size_t>(s) * target / stored]
            .add(state.shardTotals[s]);
    state.shardTotals = std::move(shardTotals);
    state.shards = target;
}

} // namespace fleet
} // namespace quetzal
