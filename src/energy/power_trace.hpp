/**
 * @file
 * Piecewise-constant scalar traces over simulated time.
 *
 * The environment side of every experiment is a trace: solar
 * irradiance (dimensionless, [0,1]) produced by energy::SolarModel,
 * or absolute harvested power in watts after scaling through
 * energy::Harvester. Traces support O(log n) point queries plus the
 * segment-boundary query the segment-batched simulator needs to
 * advance in O(1) through constant-power stretches.
 */

#ifndef QUETZAL_ENERGY_POWER_TRACE_HPP
#define QUETZAL_ENERGY_POWER_TRACE_HPP

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace quetzal {
namespace energy {

/**
 * A right-open piecewise-constant function of time. The value before
 * the first segment and after the last segment's start is the nearest
 * segment's value (the trace extends its final value forever).
 */
class PowerTrace
{
  public:
    /** One segment: the value holds from start until the next start. */
    struct Segment
    {
        Tick start = 0;
        double value = 0.0;
    };

    /**
     * Amortized-O(1) point queries for monotone (mostly forward)
     * query sequences. A cursor remembers the segment the last query
     * landed in and walks forward from there; a backward query
     * re-seeks via binary search. Answers are identical to the
     * trace's own valueAt()/nextChangeAfter() for every input.
     *
     * The referenced trace must outlive the cursor and must not be
     * mutated while the cursor is in use.
     */
    class Cursor
    {
      public:
        Cursor() = default;

        explicit Cursor(const PowerTrace &trace) : trace(&trace) {}

        /** Same answer as trace.valueAt(tick). */
        double valueAt(Tick tick);

        /** Same answer as trace.nextChangeAfter(tick). */
        Tick nextChangeAfter(Tick tick);

        /** Forget the remembered position (next query re-seeks). */
        void reset() { index = 0; }

        /** Remembered segment index, for external snapshots. */
        std::size_t position() const { return index; }

        /**
         * Restore a position previously read via position() against
         * the same trace. The fleet engine persists cursor positions
         * in its struct-of-arrays state so rehydrated devices resume
         * their amortized-O(1) forward walk instead of re-walking the
         * trace from tick 0 every slab.
         */
        void restore(std::size_t saved) { index = saved; }

      private:
        /** Move index to the segment holding at `tick`. */
        void seek(Tick tick);

        /** Cold out-of-line path of seek() for backward queries. */
        void reseekBackward(Tick tick);

        const PowerTrace *trace = nullptr;
        /** Index of the segment whose value holds at the last query
         *  tick (0 also covers ticks before the first segment). */
        std::size_t index = 0;
    };

    /** Empty trace; valueAt() returns 0 until segments are added. */
    PowerTrace() = default;

    /** Construct from pre-sorted segments (panics if unsorted). */
    explicit PowerTrace(std::vector<Segment> segments);

    /**
     * Construct from uniformly spaced samples starting at tick 0.
     * @param samples one value per interval
     * @param interval ticks between samples (> 0)
     */
    static PowerTrace fromSamples(const std::vector<double> &samples,
                                  Tick interval);

    /** Constant-valued trace. */
    static PowerTrace constant(double value);

    /** Append a segment; start must exceed the previous start. */
    void append(Tick start, double value);

    /** Value at the given tick. */
    double valueAt(Tick tick) const;

    /** A cursor over this trace (see Cursor). */
    Cursor cursor() const { return Cursor(*this); }

    /**
     * First tick strictly after `tick` at which the value changes,
     * or kTickNever if the value is constant from `tick` onward.
     */
    Tick nextChangeAfter(Tick tick) const;

    /** Number of segments. */
    std::size_t segmentCount() const { return segments.size(); }

    /** Read-only access to segments. */
    const std::vector<Segment> &data() const { return segments; }

    /** Largest value over all segments (0 for an empty trace). */
    double maxValue() const;

    /**
     * Time-weighted mean value over [0, horizon).
     */
    double meanValue(Tick horizon) const;

    /** Return a copy with every value multiplied by factor. */
    PowerTrace scaled(double factor) const;

    /**
     * One multiplicative overlay window: value *= factor over the
     * right-open tick range [start, end). Used by the fault layer for
     * harvest dropouts (factor 0) and spikes (factor > 1).
     */
    struct OverlayWindow
    {
        Tick start = 0;
        Tick end = 0;
        double factor = 1.0;
    };

    /**
     * Return a copy with the windows spliced in. Windows must be
     * sorted by start and non-overlapping (panics otherwise); empty
     * or identity (factor 1) windows are dropped. Outside every
     * window the copy is value-identical to this trace.
     */
    PowerTrace overlaid(const std::vector<OverlayWindow> &windows) const;

    /**
     * Serialize as CSV rows "time_seconds,value".
     */
    void writeCsv(std::ostream &out) const;

    /**
     * Parse from CSV rows "time_seconds,value" (comments allowed).
     * Calls fatal() on malformed input.
     */
    static PowerTrace readCsv(std::istream &in);

  private:
    std::vector<Segment> segments;
};

// Cursor queries are inline: they sit on the per-event hot path of
// both simulation engines (one valueAt + nextChangeAfter pair per
// device step), where the call overhead would rival the work.

inline void
PowerTrace::Cursor::seek(Tick tick)
{
    const auto &segments = trace->segments;
    if (index >= segments.size())
        index = 0;
    if (tick < segments[index].start) {
        reseekBackward(tick);
        return;
    }
    // Forward walk; each segment is crossed at most once per pass
    // over the trace, so a monotone query sequence is O(1) amortized.
    while (index + 1 < segments.size() &&
           segments[index + 1].start <= tick)
        ++index;
}

inline double
PowerTrace::Cursor::valueAt(Tick tick)
{
    if (trace == nullptr || trace->segments.empty())
        return 0.0;
    seek(tick);
    return trace->segments[index].value;
}

inline Tick
PowerTrace::Cursor::nextChangeAfter(Tick tick)
{
    if (trace == nullptr || trace->segments.empty())
        return kTickNever;
    seek(tick);
    const auto &segments = trace->segments;
    const double current = segments[index].value;
    // First candidate strictly after tick: the next segment, or the
    // holding segment itself when tick still precedes the first start.
    std::size_t j = segments[index].start > tick ? index : index + 1;
    while (j < segments.size() && segments[j].value == current)
        ++j;
    if (j == segments.size())
        return kTickNever;
    return segments[j].start;
}

} // namespace energy
} // namespace quetzal

#endif // QUETZAL_ENERGY_POWER_TRACE_HPP
