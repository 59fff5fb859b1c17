/**
 * @file
 * Container and queries over a sequence of sensing events.
 */

#ifndef QUETZAL_TRACE_EVENT_TRACE_HPP
#define QUETZAL_TRACE_EVENT_TRACE_HPP

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "trace/event.hpp"
#include "util/types.hpp"

namespace quetzal {
namespace trace {

/**
 * An ordered, non-overlapping sequence of sensing events. Supports
 * the point queries the capture pipeline issues once per capture
 * period, amortized O(1) via a monotone cursor (captures scan the
 * trace in time order).
 */
class EventTrace
{
  public:
    /**
     * Amortized-O(1) point queries for monotone (mostly forward)
     * query sequences: remembers the event the last query landed
     * near and walks forward from there; a backward query re-seeks
     * via binary search. Answers are identical to eventAt() for
     * every input. The trace must outlive the cursor and must not
     * be mutated while the cursor is in use.
     */
    class Cursor
    {
      public:
        Cursor() = default;

        explicit Cursor(const EventTrace &trace) : trace(&trace) {}

        /** Same answer as trace.eventAt(tick). */
        const SensingEvent *eventAt(Tick tick);

        /** Forget the remembered position (next query re-seeks). */
        void reset() { index = 0; }

        /** Remembered event index, for external snapshots. */
        std::size_t position() const { return index; }

        /**
         * Restore a position previously read via position() against
         * the same trace. Purely a performance memo — answers are
         * identical for any remembered index — but restoring it keeps
         * a resumed run's forward walk amortized O(1) from the first
         * query.
         */
        void restore(std::size_t saved) { index = saved; }

      private:
        const EventTrace *trace = nullptr;
        /** Index of the last event with start <= the query tick
         *  (0 also covers ticks before the first event's start). */
        std::size_t index = 0;
    };

    EventTrace() = default;

    /**
     * Construct from events; panics if events overlap or are not
     * sorted by start time.
     */
    explicit EventTrace(std::vector<SensingEvent> events);

    /** Number of events. */
    std::size_t size() const { return events.size(); }

    bool empty() const { return events.empty(); }

    /** Read-only event access. */
    const std::vector<SensingEvent> &data() const { return events; }

    /** Event by index. */
    const SensingEvent &at(std::size_t index) const;

    /** First tick after the final event ends (0 when empty). */
    Tick endTime() const;

    /** Number of interesting events. */
    std::size_t interestingCount() const;

    /**
     * Query the event active at the given tick, or nullptr if none.
     * O(log n).
     */
    const SensingEvent *eventAt(Tick tick) const;

    /** A cursor over this trace (see Cursor). */
    Cursor cursor() const { return Cursor(*this); }

    /** True when any event is active at the given tick. */
    bool activeAt(Tick tick) const { return eventAt(tick) != nullptr; }

    /** Serialize as CSV rows "start_s,duration_s,interesting". */
    void writeCsv(std::ostream &out) const;

    /** Parse from CSV (see writeCsv). Calls fatal() on bad input. */
    static EventTrace readCsv(std::istream &in);

  private:
    std::vector<SensingEvent> events;
};

} // namespace trace
} // namespace quetzal

#endif // QUETZAL_TRACE_EVENT_TRACE_HPP
