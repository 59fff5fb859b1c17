/**
 * @file
 * Sharded fleet engine: simulate millions of intermittently-powered
 * devices for a simulated day in bounded memory (DESIGN.md
 * section 15).
 *
 * Instead of one heap sim::Simulator per device, the fleet keeps a
 * compact struct-of-arrays snapshot per device (fleet::ShardState)
 * and advances whole shards across fixed *time slabs* by rehydrating
 * one scratch sim::Device per (shard, cohort) and advancing it with
 * the closed-form Device::advance span logic device by device. Shards are scheduled on sim::parallelFor — the same
 * deterministic pool as the experiment engine — and all cross-device
 * aggregation is 64-bit-integer arithmetic (ticks, counts,
 * nanojoules), so fleet outputs are byte-identical for every --jobs
 * value and every shard count.
 *
 * Between slabs a FleetCoordinator consumes the per-slab shard
 * reports (the BOINC-MGE server-scheduler shape: devices report
 * charge / buffer occupancy / drop counts, a central policy assigns
 * work and degradation levels) and publishes one Directive per
 * cohort through the policy registry's named policies.
 */

#ifndef QUETZAL_FLEET_FLEET_HPP
#define QUETZAL_FLEET_FLEET_HPP

#include <cmath>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <iterator>
#include <string>
#include <vector>

#include "app/device_profiles.hpp"
#include "obs/trace_sink.hpp"
#include "sim/metrics.hpp"
#include "trace/event_generator.hpp"
#include "util/types.hpp"

namespace quetzal::util::wire {
class Archive;
}

namespace quetzal {
namespace fleet {

/** Maximum degradation level a directive may assign. */
constexpr std::uint8_t kMaxDegradeLevel = 2;

/**
 * One device population inside the fleet: every device in a cohort
 * shares its policy, device profile, harvest environment and
 * workload parameters; devices differ only in their capture-phase
 * offset (hashed from the cohort seed and the device index) and in
 * the state they accumulate.
 */
struct CohortConfig
{
    std::string name;
    std::size_t devices = 0;
    /** Registered policy name driving the coordinator. */
    std::string policy = "sjf-ibo";
    app::DeviceKind device = app::DeviceKind::Apollo4;
    /** Scales the interesting/uninteresting split of dropped
     *  captures (crowdedness; the paper's Table 1 environments). */
    trace::EnvironmentPreset environment =
        trace::EnvironmentPreset::Crowded;
    std::uint64_t seed = 42;
    int harvesterCells = 6;
    /** Ticks between capture attempts (per-device phase offset
     *  hashed from seed and device index). */
    Tick capturePeriod = 60 * kTicksPerSecond;
    /** Input-buffer capacity per device. */
    std::uint32_t bufferCapacity = 8;
    /** Full-quality execution ticks of one job (level 0); level L
     *  runs in max(1, taskTicks >> L). */
    Tick taskTicks = 3 * kTicksPerSecond;
    /** Execution power of one job. */
    Watts taskPower = 12e-3;
};

/** Fleet-level shape: shards, slabs, horizon, rollup cadence. */
struct FleetConfig
{
    unsigned shards = 1;
    /** Slab length: devices advance this far between coordinator
     *  exchanges. Must divide into the horizon's slab walk. */
    Tick slabTicks = 600 * kTicksPerSecond;
    /** Simulated duration (default: one day). */
    Tick horizonTicks = 86400 * kTicksPerSecond;
    /** Rollup cadence (a multiple of slabTicks). */
    Tick rollupTicks = 3600 * kTicksPerSecond;
    /** Solar-trace resolution; coarse by default because a fleet
     *  day crosses every segment once per device. */
    double solarSampleSeconds = 300.0;
    std::vector<CohortConfig> cohorts;
};

/**
 * Integer slab/total counters for one cohort. Everything is 64-bit
 * integer (energies in nanojoules, times in ticks), so sums are
 * associative and fleet aggregates are byte-identical regardless of
 * how devices are partitioned into shards or threads.
 */
struct CohortCounters
{
    std::uint64_t captures = 0;      ///< capture attempts, device on
    std::uint64_t missedCaptures = 0;///< capture instants, device off
    std::uint64_t storedInputs = 0;
    std::uint64_t dropsInteresting = 0;
    std::uint64_t dropsUninteresting = 0;
    std::uint64_t jobsCompleted = 0;
    std::uint64_t degradedJobs = 0;
    std::uint64_t powerFailures = 0;
    std::uint64_t checkpointSaves = 0;
    std::uint64_t rechargeTicks = 0;
    std::uint64_t activeTicks = 0;
    /** Sum over devices of stored charge at slab end (nJ). */
    std::uint64_t chargeNanojoules = 0;
    /** Harvest rejected at a full capacitor over the slab (nJ). */
    std::uint64_t wastedNanojoules = 0;
    /** Sum over devices of buffer occupancy at slab end. */
    std::uint64_t occupancySum = 0;
    /** Devices off (recharging) at slab end. */
    std::uint64_t devicesOff = 0;

    /** Field-wise sum (counter fields; end-of-slab gauges add too,
     *  which is exactly right when summing across shards). */
    void add(const CohortCounters &other);

    /** Checkpoint wire layout: every field as a varint, in
     *  declaration order. */
    void walk(util::wire::Archive &ar);
};

/** One CohortCounters field and whether it is an end-of-slab gauge. */
struct CohortCounterField
{
    std::uint64_t CohortCounters::*member;
    /** Describes the devices at a slab end (replaced across slabs)
     *  rather than counting events (accumulated across slabs). */
    bool gauge;
};

/** Every CohortCounters field, in declaration (= wire) order. The
 *  sums, the rollup delta and the checkpoint walk all iterate this
 *  table, so a new field is added here and nowhere else. */
inline constexpr CohortCounterField kCohortCounterFields[] = {
    {&CohortCounters::captures, false},
    {&CohortCounters::missedCaptures, false},
    {&CohortCounters::storedInputs, false},
    {&CohortCounters::dropsInteresting, false},
    {&CohortCounters::dropsUninteresting, false},
    {&CohortCounters::jobsCompleted, false},
    {&CohortCounters::degradedJobs, false},
    {&CohortCounters::powerFailures, false},
    {&CohortCounters::checkpointSaves, false},
    {&CohortCounters::rechargeTicks, false},
    {&CohortCounters::activeTicks, false},
    {&CohortCounters::chargeNanojoules, true},
    {&CohortCounters::wastedNanojoules, false},
    {&CohortCounters::occupancySum, true},
    {&CohortCounters::devicesOff, true},
};
static_assert(sizeof(CohortCounters) ==
                  std::size(kCohortCounterFields) * sizeof(std::uint64_t),
              "every CohortCounters field needs a kCohortCounterFields row");

/** Nanojoules of a joule quantity, rounded to nearest. */
inline std::uint64_t
toNano(Joules joules)
{
    return static_cast<std::uint64_t>(std::llround(joules * 1e9));
}

/** Final per-cohort outcome. */
struct CohortResult
{
    std::string name;
    std::string policy;
    std::size_t devices = 0;
    /** Cumulative integer counters over the whole horizon; the
     *  gauge fields (charge/occupancy/off) are end-of-horizon. */
    CohortCounters totals;
    /** The same outcome mapped onto the standard metrics struct. */
    sim::Metrics metrics;
};

/** Everything runFleet() produced. */
struct FleetResult
{
    std::vector<CohortResult> cohorts;
    /** Cohort totals summed fleet-wide. */
    CohortCounters fleetTotals;
    /** Cumulative per-shard totals (summed over cohorts); the
     *  shard-sum == fleetTotals identity is the property the
     *  determinism suite checks. */
    std::vector<CohortCounters> shardTotals;
    std::size_t devices = 0;
    unsigned shards = 0;
    /** Bytes of struct-of-arrays device state (all shards). */
    std::size_t stateBytes = 0;
    /** Barrier the run resumed from (0 = started at tick 0). */
    Tick resumedFromTick = 0;
    /** Barrier the run halted at under stopAfterTick (0 = ran to
     *  the horizon). A halted run skips its cohort summaries, so
     *  its stdout is a strict prefix of the straight run's. */
    Tick haltedAtTick = 0;
    /** Barrier snapshots handed to the checkpoint sink. */
    std::uint64_t checkpointsWritten = 0;
};

/** Engine knobs. */
struct FleetOptions
{
    /** Worker threads for the shard pool; 0 = sim::defaultJobs(). */
    unsigned jobs = 0;
    /** Rollup event stream (FleetRollup/PowerFailure/
     *  RechargeInterval per cohort per rollup period); may be null.
     *  Events are emitted serially between slabs. */
    obs::TraceSink *sink = nullptr;
    /** Rollup text lines + final summary; may be null. */
    std::ostream *out = nullptr;

    /** @name Barrier checkpointing (DESIGN.md section 17) */
    /// @{
    /** Receives the encoded FleetSnapshot blob and the barrier tick
     *  it was taken at, serially between slabs. Saving draws no
     *  randomness and mutates nothing, so a checkpointing run stays
     *  byte-identical to a clean one. */
    std::function<void(std::string &&, Tick)> checkpointSink;
    /** Snapshot every N coordinator barriers (the final barrier at
     *  the horizon always snapshots); meaningful only with a sink. */
    unsigned checkpointEverySlabs = 1;
    /** Halt cleanly after the first barrier at or past this tick
     *  when that barrier is before the horizon (0 = run to the
     *  horizon). The kill-at-barrier chaos driver rides this. */
    Tick stopAfterTick = 0;
    /** Resume point: the barrier tick and the decoded-and-validated
     *  snapshot blob (fleet::decodeFleetState names the diagnostics;
     *  runFleet panics on a malformed blob). */
    Tick resumeTick = 0;
    const std::string *resumeState = nullptr;
    /** The resume scan dropped a torn final record (reported on the
     *  FleetRestore episode event). */
    bool resumeTornTail = false;
    /** Checkpoint/restore episode events (FleetCheckpoint /
     *  FleetRestore). Deliberately a separate sink: the run sink's
     *  event stream — and therefore every golden — must not depend
     *  on whether the run checkpoints. */
    obs::TraceSink *episodeSink = nullptr;
    /// @}
};

/**
 * Run the fleet over its horizon. Panics on malformed configs
 * (zero devices/shards, slab/rollup mismatch, unknown policy name);
 * scenario specs are validated before they get here.
 */
FleetResult runFleet(const FleetConfig &config,
                     const FleetOptions &options = {});

} // namespace fleet
} // namespace quetzal

#endif // QUETZAL_FLEET_FLEET_HPP
