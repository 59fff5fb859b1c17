#include "obs/event.hpp"

#include "util/logging.hpp"
#include "util/wire.hpp"

namespace quetzal {
namespace obs {

namespace {

struct KindInfo
{
    EventKind kind;
    std::string_view name;
    ObsLevel level;
};

/** Name + minimum level per kind, indexed by the enum value. */
constexpr KindInfo kKinds[kEventKindCount] = {
    {EventKind::Capture, "capture", ObsLevel::Counters},
    {EventKind::InputStored, "stored", ObsLevel::Counters},
    {EventKind::InputDropped, "dropped", ObsLevel::Counters},
    {EventKind::ScheduleDecision, "schedule", ObsLevel::Counters},
    {EventKind::TaskService, "task_service", ObsLevel::Decisions},
    {EventKind::IboOutcome, "ibo_outcome", ObsLevel::Counters},
    {EventKind::PidUpdate, "pid", ObsLevel::Decisions},
    {EventKind::TaskComplete, "task_done", ObsLevel::Decisions},
    {EventKind::JobComplete, "job_done", ObsLevel::Counters},
    {EventKind::PowerFailure, "power_failure", ObsLevel::Counters},
    {EventKind::RechargeInterval, "recharge", ObsLevel::Counters},
    {EventKind::BufferOccupancy, "occupancy", ObsLevel::Full},
    {EventKind::RunEnd, "run_end", ObsLevel::Counters},
    {EventKind::FaultInjected, "fault_injected", ObsLevel::Counters},
    {EventKind::FaultDetected, "fault_detected", ObsLevel::Counters},
    {EventKind::FaultMitigated, "fault_mitigated", ObsLevel::Counters},
    {EventKind::FleetRollup, "fleet_rollup", ObsLevel::Counters},
    {EventKind::FleetCheckpoint, "fleet_checkpoint", ObsLevel::Counters},
    {EventKind::FleetRestore, "fleet_restore", ObsLevel::Counters},
};

const KindInfo &
info(EventKind kind)
{
    const auto index = static_cast<std::size_t>(kind);
    if (index >= kEventKindCount ||
        kKinds[index].kind != kind)
        util::panic("unknown event kind");
    return kKinds[index];
}

} // namespace

std::string
obsLevelName(ObsLevel level)
{
    switch (level) {
      case ObsLevel::Off: return "off";
      case ObsLevel::Counters: return "counters";
      case ObsLevel::Decisions: return "decisions";
      case ObsLevel::Full: return "full";
    }
    util::panic("unknown obs level");
}

std::optional<ObsLevel>
parseObsLevel(const std::string &name)
{
    if (name == "off") return ObsLevel::Off;
    if (name == "counters") return ObsLevel::Counters;
    if (name == "decisions") return ObsLevel::Decisions;
    if (name == "full") return ObsLevel::Full;
    return std::nullopt;
}

std::string_view
eventKindName(EventKind kind)
{
    return info(kind).name;
}

std::optional<EventKind>
parseEventKind(std::string_view name)
{
    for (const KindInfo &k : kKinds) {
        if (name == k.name)
            return k.kind;
    }
    return std::nullopt;
}

ObsLevel
minLevel(EventKind kind)
{
    return info(kind).level;
}

void
Event::walk(util::wire::Archive &ar)
{
    ar.enumeration(kind, kEventKindCount);
    ar.varint(tick);
    ar.varint(id);
    ar.zigzag(value);
    ar.zigzag(extra);
    ar.real(a);
    ar.real(b);
    ar.fixed32(flags);
    ar.fixed32(options);
}

} // namespace obs
} // namespace quetzal
