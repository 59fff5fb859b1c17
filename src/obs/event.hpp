/**
 * @file
 * Typed lifecycle events for the telemetry subsystem (DESIGN.md
 * section 9).
 *
 * Every decision the runtime makes — scheduler pick, IBO prediction,
 * degradation choice, PID correction — and every input-lifecycle
 * transition — capture, store, drop, job completion — is describable
 * as one fixed-size POD Event. A flat POD (no strings, no heap) keeps
 * the recording hot path to a bounds-checked vector push, so tracing
 * a run costs nanoseconds per event and ObsLevel::Off costs one
 * branch.
 *
 * Timestamps are simulated ticks, never wall clock: a trace is a
 * pure function of the run's configuration, which is what makes
 * byte-identical golden-trace tests and --jobs N determinism
 * possible.
 */

#ifndef QUETZAL_OBS_EVENT_HPP
#define QUETZAL_OBS_EVENT_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace quetzal::util::wire {
class Archive;
}

namespace quetzal {
namespace obs {

/**
 * How much the observers record. Levels are cumulative: each level
 * records everything the previous one does.
 */
enum class ObsLevel : std::uint8_t {
    Off = 0,       ///< record nothing (the default; near-zero cost)
    Counters = 1,  ///< lifecycle events that reconstruct sim::Metrics
    Decisions = 2, ///< + per-task E[S] terms, PID updates, task timing
    Full = 3,      ///< + buffer-occupancy samples at every capture
};

/** Level display name ("off", "counters", ...). */
std::string obsLevelName(ObsLevel level);

/** Parse a level name; nullopt on unknown input. */
std::optional<ObsLevel> parseObsLevel(const std::string &name);

/** Everything a run can report. */
enum class EventKind : std::uint8_t {
    Capture = 0,      ///< periodic capture attempt (every frame)
    InputStored,      ///< frame survived the diff and was buffered
    InputDropped,     ///< frame hit a full buffer (an IBO drop)
    ScheduleDecision, ///< controller selected a job + quality options
    TaskService,      ///< one per-task E[S] term behind a decision
    IboOutcome,       ///< observed overflow outcome of a decision
    PidUpdate,        ///< prediction-error sample + PID output
    TaskComplete,     ///< one task execution finished
    JobComplete,      ///< job finished; input left the system
    PowerFailure,     ///< device depleted during the last advance
    RechargeInterval, ///< ticks spent off, recharging
    BufferOccupancy,  ///< queue-depth sample
    RunEnd,           ///< run-level totals (horizon, nominal inputs)
    FaultInjected,    ///< fault layer perturbed the run (src/fault)
    FaultDetected,    ///< prediction error crossed the fault threshold
    FaultMitigated,   ///< error back under threshold while fault active
    FleetRollup,      ///< per-cohort fleet aggregate (src/fleet)
    FleetCheckpoint,  ///< fleet barrier snapshot appended to disk
    FleetRestore,     ///< fleet run resumed from a barrier snapshot
};

/** Number of distinct event kinds. */
constexpr std::size_t kEventKindCount = 19;

/** Kind display name ("capture", "schedule", ...); a view of a
 *  static table, valid for the life of the program. */
std::string_view eventKindName(EventKind kind);

/** Parse a kind name; nullopt on unknown input. */
std::optional<EventKind> parseEventKind(std::string_view name);

/** Minimum ObsLevel at which a kind is recorded. */
ObsLevel minLevel(EventKind kind);

/** @name Event::flags bits */
/// @{
constexpr std::uint32_t kFlagInteresting = 1u << 0;  ///< ground truth
constexpr std::uint32_t kFlagDifferent = 1u << 1;    ///< frame differed
constexpr std::uint32_t kFlagIboPredicted = 1u << 2; ///< Alg. 2 fired
constexpr std::uint32_t kFlagDegraded = 1u << 3;     ///< quality reduced
constexpr std::uint32_t kFlagOverflowed = 1u << 4;   ///< drop observed
constexpr std::uint32_t kFlagClassify = 1u << 5;     ///< classify job
constexpr std::uint32_t kFlagTransmit = 1u << 6;     ///< transmit job
constexpr std::uint32_t kFlagPositive = 1u << 7;     ///< ML said yes
constexpr std::uint32_t kFlagHighQuality = 1u << 8;  ///< HQ radio option
constexpr std::uint32_t kFlagUnfinished = 1u << 9;   ///< cut by horizon
constexpr std::uint32_t kFlagTornTail = 1u << 10;    ///< resume dropped a torn final record
/// @}

/**
 * One trace record. Field meaning depends on `kind`:
 *
 * kind             | id           | value        | extra        | a            | b          | flags / options
 * -----------------|--------------|--------------|--------------|--------------|------------|-----------------
 * Capture          | input id (0 if filtered) | — | —           | —            | —          | different, interesting
 * InputStored      | input id     | occupancy    | —            | —            | —          | interesting
 * InputDropped     | input id     | occupancy    | —            | —            | —          | interesting
 * ScheduleDecision | decision seq | job id       | occupancy    | E[S] (s)     | power (W)  | iboPredicted, degraded; options = per-task choice
 * TaskService      | decision seq | task id      | option index | E[S] term (s)| exec prob  | —
 * IboOutcome       | decision seq | drops in job | —            | —            | —          | iboPredicted, overflowed, unfinished
 * PidUpdate        | decision seq | —            | —            | error (s)    | output (s) | —
 * TaskComplete     | decision seq | task id      | option index | observed (s) | —          | —
 * JobComplete      | input id     | job id       | decision seq | observed (s) | —          | classify/transmit, positive, highQuality, interesting
 * PowerFailure     | —            | new failures | new saves    | —            | —          | —
 * RechargeInterval | —            | ticks off    | —            | —            | —          | —
 * BufferOccupancy  | —            | occupancy    | capacity     | —            | —          | —
 * RunEnd           | env events   | nominal interesting | unprocessed interesting | env interesting events | simulated ticks | —
 * FaultInjected    | injection seq| fault class  | window end tick (0 = point/persistent) | magnitude | — | —
 * FaultDetected    | episode seq  | —            | —            | error (s)    | threshold (s) | —
 * FaultMitigated   | episode seq  | calm streak  | —            | error (s)    | PID output (s) | —
 * FleetRollup      | cohort index | jobs completed (delta) | IBO drops (delta) | mean charge (J) | energy wasted (delta J) | —
 * FleetCheckpoint  | barrier epoch | state bytes | shard count  | —            | —          | —
 * FleetRestore     | barrier epoch | state bytes | shard count  | —            | —          | tornTail
 *
 * `tick` is the simulated time the event was recorded at.
 */
struct Event
{
    EventKind kind = EventKind::Capture;
    Tick tick = 0;
    std::uint64_t id = 0;
    std::int64_t value = 0;
    std::int64_t extra = 0;
    double a = 0.0;
    double b = 0.0;
    std::uint32_t flags = 0;
    /** Per-task degradation options, 4 bits per task position. */
    std::uint32_t options = 0;

    /** Checkpoint wire layout (the fleet replays buffered events on
     *  resume): kind byte, varint tick and id, zigzag value and
     *  extra, bit-exact a and b, fixed32 flags and options. */
    void walk(util::wire::Archive &ar);
};

/**
 * Pack per-task option indices (4 bits each, up to 8 tasks).
 * Container-generic so the scheduler's small-vector and plain
 * std::vector shapes both pack without a conversion copy.
 */
template <typename Vec>
std::uint32_t
packOptions(const Vec &optionPerTask)
{
    std::uint32_t packed = 0;
    const std::size_t count = optionPerTask.size() < 8 ?
        optionPerTask.size() : 8;
    for (std::size_t i = 0; i < count; ++i) {
        packed |= static_cast<std::uint32_t>(optionPerTask[i] & 0xf)
            << (4 * i);
    }
    return packed;
}

} // namespace obs
} // namespace quetzal

#endif // QUETZAL_OBS_EVENT_HPP
