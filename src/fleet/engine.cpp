#include "fleet/fleet.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "app/camera.hpp"
#include "energy/harvester.hpp"
#include "energy/solar_model.hpp"
#include "fleet/checkpoint.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/state.hpp"
#include "obs/event.hpp"
#include "sim/device.hpp"
#include "sim/runner.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"

namespace quetzal {
namespace fleet {

namespace {

/** Jobs a device keeps its degraded level for after the directive
 *  stops asking for it (recovery hysteresis; lives in the per-device
 *  scratch byte). */
constexpr std::uint8_t kRecoveryCooldown = 2;

/** P(interesting) of a capture, by crowdedness preset. */
double
interestingProbability(trace::EnvironmentPreset preset)
{
    switch (preset) {
      case trace::EnvironmentPreset::MoreCrowded: return 0.7;
      case trace::EnvironmentPreset::Crowded: return 0.5;
      case trace::EnvironmentPreset::LessCrowded: return 0.3;
      case trace::EnvironmentPreset::Msp430Short: return 0.5;
    }
    util::panic("invalid environment preset");
}

/** Cohort-constant inputs of the shard loop, built once. */
struct CohortRuntime
{
    app::DeviceProfile profile;
    energy::PowerTrace watts;
    Joules captureCost = 0.0;
    /** mix64 threshold: hash < this => interesting. */
    std::uint64_t interestingThreshold = 0;
};

CohortRuntime
buildRuntime(const CohortConfig &cohort, const FleetConfig &config)
{
    CohortRuntime runtime;
    runtime.profile = app::deviceProfile(cohort.device);
    // The fleet snapshot (sim::Device::State) deliberately omits the
    // Periodic policy's rollback bookkeeping; fleet devices
    // checkpoint just in time, like the paper's platform.
    runtime.profile.checkpoint.policy =
        app::CheckpointPolicy::JustInTime;

    energy::SolarConfig solarCfg;
    solarCfg.seed = cohort.seed ^ 0x5eedf00dull;
    solarCfg.sampleSeconds = config.solarSampleSeconds;
    energy::HarvesterConfig harvesterCfg;
    harvesterCfg.cellCount = cohort.harvesterCells;
    runtime.watts = energy::Harvester(harvesterCfg).powerTrace(
        energy::SolarModel(solarCfg).generate(config.horizonTicks));

    runtime.captureCost =
        app::cameraModel(cohort.device).captureEnergy();
    const double p = interestingProbability(cohort.environment);
    runtime.interestingThreshold = static_cast<std::uint64_t>(
        p * 18446744073709551615.0);
    return runtime;
}

/** First capture instant of device `gid` at or after `from`. */
Tick
firstCaptureAtOrAfter(Tick offset, Tick period, Tick from)
{
    if (from <= offset)
        return offset;
    const Tick since = from - offset;
    const Tick k = (since + period - 1) / period;
    return offset + k * period;
}

/**
 * Advance every device of one block across [slabStart, slabEnd).
 * The scratch Device is rehydrated per device from the SoA columns;
 * all writes go to this block and this report, so concurrent shards
 * never share mutable state.
 */
void
advanceBlock(CohortBlock &block, const CohortConfig &cohort,
             const CohortRuntime &runtime, const Directive &directive,
             Tick slabStart, Tick slabEnd, CohortCounters &report)
{
    sim::Device scratch(runtime.profile, runtime.watts);
    const Tick period = cohort.capturePeriod;
    const std::uint32_t capacity = cohort.bufferCapacity;
    const std::uint64_t offsetKey = cohort.seed ^ 0x0ff5e7ull;
    const std::uint64_t classKey = cohort.seed ^ 0xc1a55ull;

    for (std::size_t i = 0; i < block.size(); ++i) {
        const std::uint64_t gid = block.firstDevice + i;

        sim::Device::State state;
        state.energy = block.charge[i];
        state.phase =
            static_cast<sim::DevicePhase>(block.phase[i]);
        state.taskPower = cohort.taskPower;
        state.remainingTaskTicks = block.taskTicksLeft[i];
        state.remainingPhaseTicks = block.phaseTicksLeft[i];
        state.cursorIndex = block.cursor[i];
        scratch.importState(state);

        std::uint32_t occupancy = block.occupancy[i];
        std::uint8_t lastLevel = block.level[i];
        std::uint8_t cooldown = block.scratch[i];

        const Tick offset = static_cast<Tick>(
            util::mix64(offsetKey + gid * 0x9e3779b97f4a7c15ull) %
            static_cast<std::uint64_t>(period));
        Tick nextCapture =
            firstCaptureAtOrAfter(offset, period, slabStart);

        Tick now = slabStart;
        while (now < slabEnd) {
            if (!scratch.taskActive() && occupancy > 0) {
                // Start serving the next buffered input at the level
                // the coordinator's directive implies for this
                // device's own charge and backlog. Recovery toward
                // full quality steps one level per job, after a
                // cooldown — degradation applies instantly.
                const std::uint8_t want = assignLevel(
                    directive, toNano(scratch.energy()), occupancy);
                std::uint8_t use;
                if (want >= lastLevel) {
                    use = want;
                    if (want > lastLevel)
                        cooldown = kRecoveryCooldown;
                } else if (cooldown > 0) {
                    use = lastLevel;
                    --cooldown;
                } else {
                    use = lastLevel - 1;
                }
                lastLevel = use;
                scratch.startTask(cohort.taskPower,
                                  execTicks(cohort.taskTicks, use));
                if (use > 0)
                    ++report.degradedJobs;
            }

            const Tick limit = std::min(slabEnd, nextCapture);
            if (limit > now) {
                const bool wasActive = scratch.taskActive();
                now = scratch.advance(now, limit);
                if (wasActive && !scratch.taskActive()) {
                    // Task completed (possibly before the limit):
                    // the input leaves the buffer and the next
                    // iteration may start serving another.
                    ++report.jobsCompleted;
                    --occupancy;
                    continue;
                }
            }

            if (now == nextCapture && now < slabEnd) {
                if (scratch.phase() == sim::DevicePhase::Recharging) {
                    // Device is off: the frame never happens.
                    ++report.missedCaptures;
                } else {
                    ++report.captures;
                    scratch.drawInstantaneous(runtime.captureCost);
                    if (occupancy < capacity) {
                        ++occupancy;
                        ++report.storedInputs;
                    } else {
                        const std::uint64_t k = static_cast<
                            std::uint64_t>((nextCapture - offset) /
                                           period);
                        const bool interesting =
                            util::mix64(classKey +
                                  gid * 0x9e3779b97f4a7c15ull + k) <
                            runtime.interestingThreshold;
                        if (interesting)
                            ++report.dropsInteresting;
                        else
                            ++report.dropsUninteresting;
                    }
                }
                nextCapture += period;
            }
        }

        const sim::DeviceStats &stats = scratch.stats();
        report.powerFailures += stats.powerFailures;
        report.checkpointSaves += stats.checkpointSaves;
        report.rechargeTicks +=
            static_cast<std::uint64_t>(stats.rechargeTicks);
        report.activeTicks +=
            static_cast<std::uint64_t>(stats.activeTicks);
        report.wastedNanojoules +=
            toNano(scratch.store().rejectedHarvest());

        const sim::Device::State after = scratch.exportState();
        block.charge[i] = after.energy;
        block.phase[i] = static_cast<std::uint8_t>(after.phase);
        block.taskTicksLeft[i] = after.remainingTaskTicks;
        block.phaseTicksLeft[i] =
            static_cast<std::int32_t>(after.remainingPhaseTicks);
        block.cursor[i] =
            static_cast<std::uint32_t>(after.cursorIndex);
        block.occupancy[i] = static_cast<std::uint16_t>(occupancy);
        block.level[i] = lastLevel;
        block.scratch[i] = cooldown;

        report.chargeNanojoules += toNano(after.energy);
        report.occupancySum += occupancy;
        if (after.phase == sim::DevicePhase::Recharging)
            ++report.devicesOff;
    }
}

/** Fold one slab into a running total: counters accumulate, while
 *  gauges describe the slab end, so the latest slab wins. */
void
addCounters(CohortCounters &total, const CohortCounters &slab)
{
    for (const CohortCounterField &field : kCohortCounterFields) {
        total.*field.member = field.gauge
            ? slab.*field.member
            : total.*field.member + slab.*field.member;
    }
}

/**
 * Fans rollup events out to the run sink while keeping the copy a
 * barrier snapshot serializes — replayed into the run sink on
 * restore, so a resumed run's event stream is the straight run's.
 */
struct LoggingSink final : obs::TraceSink
{
    obs::TraceSink *inner = nullptr;
    std::vector<obs::Event> *log = nullptr;

    void
    record(const obs::Event &event) override
    {
        if (inner != nullptr)
            inner->record(event);
        if (log != nullptr)
            log->push_back(event);
    }
};

void
emitRollup(obs::TraceSink &sink, Tick tick, std::size_t cohort,
           const CohortCounters &delta, const CohortCounters &gauge,
           std::uint64_t devices)
{
    obs::Event rollup;
    rollup.kind = obs::EventKind::FleetRollup;
    rollup.tick = tick;
    rollup.id = cohort;
    rollup.value = static_cast<std::int64_t>(delta.jobsCompleted);
    rollup.extra = static_cast<std::int64_t>(
        delta.dropsInteresting + delta.dropsUninteresting);
    rollup.a = devices > 0
        ? static_cast<double>(gauge.chargeNanojoules / devices) / 1e9
        : 0.0;
    rollup.b = static_cast<double>(delta.wastedNanojoules) / 1e9;
    sink.record(rollup);

    obs::Event failures;
    failures.kind = obs::EventKind::PowerFailure;
    failures.tick = tick;
    failures.id = cohort;
    failures.value = static_cast<std::int64_t>(delta.powerFailures);
    failures.extra = static_cast<std::int64_t>(delta.checkpointSaves);
    sink.record(failures);

    obs::Event recharge;
    recharge.kind = obs::EventKind::RechargeInterval;
    recharge.tick = tick;
    recharge.id = cohort;
    recharge.value = static_cast<std::int64_t>(delta.rechargeTicks);
    sink.record(recharge);
}

void
printRollupLine(std::ostream &out, Tick tick,
                const CohortConfig &cohort,
                const CohortCounters &delta,
                const CohortCounters &gauge)
{
    const std::uint64_t devices = cohort.devices;
    char line[256];
    std::snprintf(
        line, sizeof(line),
        "[t=%6lld s] %-10s jobs=%llu drops=%llu missed=%llu "
        "off=%llu q=%.3f charge=%.3f mJ wasted=%.3f J",
        static_cast<long long>(tick / kTicksPerSecond),
        cohort.name.c_str(),
        static_cast<unsigned long long>(delta.jobsCompleted),
        static_cast<unsigned long long>(delta.dropsInteresting +
                                        delta.dropsUninteresting),
        static_cast<unsigned long long>(delta.missedCaptures),
        static_cast<unsigned long long>(gauge.devicesOff),
        devices > 0 ? static_cast<double>(gauge.occupancySum) /
                static_cast<double>(devices) : 0.0,
        devices > 0 ? static_cast<double>(
                gauge.chargeNanojoules / devices) / 1e6 : 0.0,
        static_cast<double>(delta.wastedNanojoules) / 1e9);
    out << line << "\n";
}

void
printCohortSummary(std::ostream &out, const CohortResult &cohort,
                   Tick horizonTicks)
{
    const CohortCounters &t = cohort.totals;
    const std::uint64_t devices = cohort.devices;
    char line[320];
    out << "== cohort " << cohort.name << ": policy "
        << cohort.policy << ", " << devices << " devices ==\n";
    std::snprintf(
        line, sizeof(line),
        "  jobs: %llu (degraded %llu), captures: %llu "
        "(missed %llu, stored %llu)\n"
        "  IBO drops: interesting %llu, uninteresting %llu\n",
        static_cast<unsigned long long>(t.jobsCompleted),
        static_cast<unsigned long long>(t.degradedJobs),
        static_cast<unsigned long long>(t.captures),
        static_cast<unsigned long long>(t.missedCaptures),
        static_cast<unsigned long long>(t.storedInputs),
        static_cast<unsigned long long>(t.dropsInteresting),
        static_cast<unsigned long long>(t.dropsUninteresting));
    out << line;
    std::snprintf(
        line, sizeof(line),
        "  power failures: %llu (saves %llu), per device: "
        "recharge %.3f s, active %.3f s\n"
        "  energy wasted: %.6f J fleet-wide, final mean charge "
        "%.3f mJ (horizon %lld s)\n",
        static_cast<unsigned long long>(t.powerFailures),
        static_cast<unsigned long long>(t.checkpointSaves),
        devices > 0 ? static_cast<double>(t.rechargeTicks / devices) /
                kTicksPerSecond : 0.0,
        devices > 0 ? static_cast<double>(t.activeTicks / devices) /
                kTicksPerSecond : 0.0,
        static_cast<double>(t.wastedNanojoules) / 1e9,
        devices > 0 ? static_cast<double>(
                t.chargeNanojoules / devices) / 1e6 : 0.0,
        static_cast<long long>(horizonTicks / kTicksPerSecond));
    out << line;
}

sim::Metrics
toMetrics(const CohortCounters &t, Tick horizonTicks)
{
    sim::Metrics m;
    m.captures = t.captures;
    m.storedInputs = t.storedInputs;
    m.iboDropsInteresting = t.dropsInteresting;
    m.iboDropsUninteresting = t.dropsUninteresting;
    m.jobsCompleted = t.jobsCompleted;
    m.degradedJobs = t.degradedJobs;
    m.powerFailures = t.powerFailures;
    m.checkpointSaves = t.checkpointSaves;
    m.rechargeTicks = static_cast<Tick>(t.rechargeTicks);
    m.activeTicks = static_cast<Tick>(t.activeTicks);
    m.simulatedTicks = horizonTicks;
    m.energyWastedJoules =
        static_cast<double>(t.wastedNanojoules) / 1e9;
    return m;
}

} // namespace

void
CohortCounters::add(const CohortCounters &other)
{
    for (const CohortCounterField &field : kCohortCounterFields)
        this->*field.member += other.*field.member;
}

FleetResult
runFleet(const FleetConfig &config, const FleetOptions &options)
{
    if (config.shards == 0)
        util::panic("runFleet: zero shards");
    if (config.cohorts.empty())
        util::panic("runFleet: no cohorts");
    if (config.slabTicks <= 0 || config.horizonTicks <= 0)
        util::panic("runFleet: non-positive slab or horizon");
    if (config.rollupTicks <= 0 ||
        config.rollupTicks % config.slabTicks != 0)
        util::panic(
            "runFleet: rollup must be a positive multiple of slab");
    for (const CohortConfig &cohort : config.cohorts) {
        if (cohort.devices == 0)
            util::panic(util::msg("runFleet: cohort '", cohort.name,
                                  "' has zero devices"));
        if (cohort.capturePeriod <= 0 || cohort.taskTicks <= 0 ||
            cohort.bufferCapacity == 0 || cohort.taskPower <= 0.0)
            util::panic(util::msg("runFleet: cohort '", cohort.name,
                                  "' has a non-positive parameter"));
    }

    const std::size_t cohortCount = config.cohorts.size();
    const unsigned shards = config.shards;

    // Validates every cohort's policy name through the registry.
    const FleetCoordinator coordinator(config);

    std::vector<CohortRuntime> runtimes;
    runtimes.reserve(cohortCount);
    for (const CohortConfig &cohort : config.cohorts)
        runtimes.push_back(buildRuntime(cohort, config));

    std::size_t totalDevices = 0;
    for (const CohortConfig &cohort : config.cohorts)
        totalDevices += cohort.devices;

    // The one mutable state of the run: a resume takes over the
    // decoded state, re-split for this run's shard count; a fresh run
    // materializes devices per shard, cohort c's global index range
    // split into contiguous blocks, so no structure of size (total
    // devices) ever lives outside the shard columns.
    FleetState state;
    Tick startTick = 0;
    if (options.resumeState != nullptr) {
        if (!validBarrierTick(config, options.resumeTick))
            util::panic(util::msg(
                "fleet resume: barrier epoch mismatch — tick ",
                options.resumeTick,
                " is not a coordinator barrier of this "
                "configuration"));
        state = std::move(*options.resumeState);
        reshardFleetState(state, config);
        startTick = options.resumeTick;
    } else {
        state.shards = shards;
        state.coordinator.resize(cohortCount);
        state.cohortTotals.resize(cohortCount);
        state.rollupBase.resize(cohortCount);
        state.shardTotals.resize(shards);
        state.devices.resize(shards);
        for (unsigned s = 0; s < shards; ++s) {
            state.devices[s].blocks.resize(cohortCount);
            for (std::size_t c = 0; c < cohortCount; ++c) {
                const std::size_t n = config.cohorts[c].devices;
                const std::size_t lo = n * s / shards;
                const std::size_t hi = n * (s + 1) / shards;
                state.devices[s].blocks[c].init(
                    lo, hi - lo,
                    runtimes[c].profile.storage.capacity());
            }
        }
    }
    std::vector<std::vector<CohortCounters>> reports(
        shards, std::vector<CohortCounters>(cohortCount));

    // The fingerprint, the event log and the encode buffers only
    // exist when the run checkpoints; a plain run pays nothing. The
    // buffers keep their capacity from one barrier to the next.
    const bool checkpointing =
        static_cast<bool>(options.checkpointSink);
    const std::uint64_t fingerprint =
        checkpointing ? fleetFingerprint(config) : 0;
    std::string blob;
    std::string section;
    LoggingSink rollupSink;
    rollupSink.inner = options.sink;
    rollupSink.log = checkpointing ? &state.events : nullptr;

    // Replay the restored pre-barrier events into the run sink, so it
    // — and any trace written from it — carries the straight run's
    // full timeline. They are already the state's log.
    if (options.sink != nullptr && options.resumeState != nullptr) {
        for (const obs::Event &event : state.events)
            options.sink->record(event);
    }

    std::size_t stateBytes = 0;
    for (const ShardState &shard : state.devices)
        stateBytes += shard.bytes();

    if (options.out && options.resumeState == nullptr) {
        // Shard count and --jobs are deliberately absent: the text
        // stream is byte-identical across both, and the golden files
        // under scenarios/golden/ rely on that. A resumed run skips
        // the header too — its stdout is the straight run's suffix.
        *options.out << "== fleet: " << totalDevices << " devices, "
                     << cohortCount << " cohorts, slab "
                     << config.slabTicks / kTicksPerSecond
                     << " s, horizon "
                     << config.horizonTicks / kTicksPerSecond
                     << " s ==\n";
    }

    Tick haltedAtTick = 0;
    std::uint64_t checkpointsWritten = 0;
    std::vector<Directive> directives(cohortCount);
    std::vector<CohortCounters> slabTotals(cohortCount);

    for (Tick slabStart = startTick; slabStart < config.horizonTicks;
         slabStart += config.slabTicks) {
        const Tick slabEnd = std::min(
            slabStart + config.slabTicks, config.horizonTicks);

        // Directives are copied out before the fan-out so every
        // shard reads the same immutable copy.
        for (std::size_t c = 0; c < cohortCount; ++c)
            directives[c] = state.coordinator[c].directive;

        sim::parallelFor(shards, options.jobs, [&](std::size_t s) {
            for (std::size_t c = 0; c < cohortCount; ++c) {
                reports[s][c] = CohortCounters{};
                advanceBlock(state.devices[s].blocks[c],
                             config.cohorts[c], runtimes[c],
                             directives[c], slabStart, slabEnd,
                             reports[s][c]);
            }
        });

        // Serial aggregation, shard order (64-bit integer sums, so
        // any order gives the same bytes; serial keeps it obvious).
        std::fill(slabTotals.begin(), slabTotals.end(), CohortCounters{});
        for (unsigned s = 0; s < shards; ++s) {
            // Sum the shard's cohorts first (gauges add within one
            // slab), then fold into the running shard total (gauges
            // replace across slabs) — so shardTotals' gauges are
            // "this shard's devices at the latest slab end" and the
            // shard-sum == fleetTotals identity holds field-wise.
            CohortCounters shardSlab;
            for (std::size_t c = 0; c < cohortCount; ++c) {
                slabTotals[c].add(reports[s][c]);
                shardSlab.add(reports[s][c]);
            }
            addCounters(state.shardTotals[s], shardSlab);
        }
        for (std::size_t c = 0; c < cohortCount; ++c)
            addCounters(state.cohortTotals[c], slabTotals[c]);

        coordinator.consumeSlab(slabTotals, state.coordinator);

        const bool atRollup = slabEnd % config.rollupTicks == 0 ||
            slabEnd == config.horizonTicks;
        if (atRollup) {
            for (std::size_t c = 0; c < cohortCount; ++c) {
                const CohortCounters &total = state.cohortTotals[c];
                // Counters since the last rollup; gauges as of now.
                CohortCounters delta = total;
                for (const CohortCounterField &field :
                     kCohortCounterFields) {
                    if (!field.gauge)
                        delta.*field.member -=
                            state.rollupBase[c].*field.member;
                }
                if (options.sink != nullptr || checkpointing)
                    emitRollup(rollupSink, slabEnd, c, delta, total,
                               config.cohorts[c].devices);
                if (options.out)
                    printRollupLine(*options.out, slabEnd,
                                    config.cohorts[c], delta, total);
                state.rollupBase[c] = total;
            }
        }

        // Barrier snapshot, after the coordinator consumed the slab
        // and the rollup (if due) was emitted — the exact state a
        // straight run carries into the next slab, encoded where it
        // lives. The final barrier always snapshots, whatever the
        // cadence.
        const std::uint64_t epoch = barrierEpoch(config, slabEnd);
        if (checkpointing) {
            const unsigned every = options.checkpointEverySlabs > 0
                ? options.checkpointEverySlabs
                : 1;
            if (epoch % every == 0 || slabEnd == config.horizonTicks) {
                encodeFleetState(state, fingerprint, blob, section);
                ++checkpointsWritten;
                if (options.episodeSink != nullptr) {
                    obs::Event saved;
                    saved.kind = obs::EventKind::FleetCheckpoint;
                    saved.tick = slabEnd;
                    saved.id = epoch;
                    saved.value =
                        static_cast<std::int64_t>(blob.size());
                    saved.extra = static_cast<std::int64_t>(shards);
                    options.episodeSink->record(saved);
                }
                options.checkpointSink(blob, slabEnd);
            }
        }

        // A pre-horizon halt models the preemption the chaos harness
        // injects: the barrier completed (aggregation, coordinator,
        // rollup, snapshot), then the process dies.
        if (options.stopAfterTick > 0 &&
            slabEnd >= options.stopAfterTick &&
            slabEnd < config.horizonTicks) {
            haltedAtTick = slabEnd;
            break;
        }
    }

    FleetResult result;
    result.devices = totalDevices;
    result.shards = shards;
    result.stateBytes = stateBytes;
    result.resumedFromTick = startTick;
    result.haltedAtTick = haltedAtTick;
    result.checkpointsWritten = checkpointsWritten;
    result.shardTotals = std::move(state.shardTotals);
    result.cohorts.reserve(cohortCount);
    for (std::size_t c = 0; c < cohortCount; ++c) {
        CohortResult cohort;
        cohort.name = config.cohorts[c].name;
        cohort.policy = config.cohorts[c].policy;
        cohort.devices = config.cohorts[c].devices;
        cohort.totals = state.cohortTotals[c];
        cohort.metrics =
            toMetrics(state.cohortTotals[c], config.horizonTicks);
        result.fleetTotals.add(state.cohortTotals[c]);
        result.cohorts.push_back(std::move(cohort));
    }

    if (options.out && haltedAtTick == 0) {
        // Halted runs skip the summaries: the killed run's stdout
        // must be a strict prefix of the straight run's, so prefix +
        // resumed suffix reassembles the golden byte-for-byte.
        for (const CohortResult &cohort : result.cohorts)
            printCohortSummary(*options.out, cohort,
                               config.horizonTicks);
    }
    return result;
}

} // namespace fleet
} // namespace quetzal
