#include "trace/event_trace.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "util/csv.hpp"
#include "util/logging.hpp"

namespace quetzal {
namespace trace {

EventTrace::EventTrace(std::vector<SensingEvent> events_)
    : events(std::move(events_))
{
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (events[i].duration <= 0)
            util::panic("EventTrace: event duration must be positive");
        if (i > 0 && events[i].start < events[i - 1].end())
            util::panic("EventTrace: events overlap or are unsorted");
    }
}

const SensingEvent &
EventTrace::at(std::size_t index) const
{
    if (index >= events.size())
        util::panic(util::msg("EventTrace index out of range: ", index));
    return events[index];
}

Tick
EventTrace::endTime() const
{
    return events.empty() ? 0 : events.back().end();
}

std::size_t
EventTrace::interestingCount() const
{
    return static_cast<std::size_t>(
        std::count_if(events.begin(), events.end(),
                      [](const SensingEvent &e) { return e.interesting; }));
}

const SensingEvent *
EventTrace::eventAt(Tick tick) const
{
    // Last event with start <= tick is the only candidate.
    auto it = std::upper_bound(
        events.begin(), events.end(), tick,
        [](Tick t, const SensingEvent &e) { return t < e.start; });
    if (it == events.begin())
        return nullptr;
    const SensingEvent &candidate = *std::prev(it);
    return candidate.activeAt(tick) ? &candidate : nullptr;
}

const SensingEvent *
EventTrace::Cursor::eventAt(Tick tick)
{
    if (trace == nullptr || trace->events.empty())
        return nullptr;
    const auto &events = trace->events;
    if (index >= events.size())
        index = 0;
    if (tick < events[index].start) {
        // Backward query: re-seek from scratch.
        const auto it = std::upper_bound(
            events.begin(), events.end(), tick,
            [](Tick t, const SensingEvent &e) { return t < e.start; });
        if (it == events.begin())
            return nullptr;
        index = static_cast<std::size_t>(
            std::prev(it) - events.begin());
    } else {
        // Forward walk; each event is crossed at most once per pass
        // over the trace, so a monotone query sequence is O(1)
        // amortized.
        while (index + 1 < events.size() &&
               events[index + 1].start <= tick)
            ++index;
    }
    const SensingEvent &candidate = events[index];
    return candidate.activeAt(tick) ? &candidate : nullptr;
}

void
EventTrace::writeCsv(std::ostream &out) const
{
    util::CsvWriter writer(out);
    writer.comment("start_seconds,duration_seconds,interesting");
    for (const auto &event : events) {
        writer.row(std::vector<double>{
            ticksToSeconds(event.start),
            ticksToSeconds(event.duration),
            event.interesting ? 1.0 : 0.0});
    }
}

EventTrace
EventTrace::readCsv(std::istream &in)
{
    std::vector<SensingEvent> events;
    for (const auto &row : util::readCsv(in)) {
        if (row.size() != 3)
            util::fatal("event trace CSV rows must be "
                        "start,duration,interesting");
        SensingEvent event;
        event.start = secondsToTicks(util::parseDouble(row[0]));
        event.duration = secondsToTicks(util::parseDouble(row[1]));
        event.interesting = util::parseInt(row[2]) != 0;
        events.push_back(event);
    }
    return EventTrace(std::move(events));
}

} // namespace trace
} // namespace quetzal
