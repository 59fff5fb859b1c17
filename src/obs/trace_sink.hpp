/**
 * @file
 * Trace sinks and the Recorder handle the instrumented code records
 * through.
 *
 * Concurrency contract: a sink is *per run*. Every experiment run
 * owns exactly one sink and records from exactly one thread, so the
 * hot path needs no locks or atomics — the parallel experiment
 * engine stays lock-free because isolation, not synchronization, is
 * the sharing discipline (see sim::ParallelRunner). Aggregation
 * across runs happens serially, in submission order, after the runs
 * complete; that is what keeps multi-run trace output byte-identical
 * for every --jobs value.
 */

#ifndef QUETZAL_OBS_TRACE_SINK_HPP
#define QUETZAL_OBS_TRACE_SINK_HPP

#include <vector>

#include "obs/event.hpp"

namespace quetzal {
namespace obs {

/**
 * Abstract consumer of one run's event stream. Implementations must
 * not assume anything about event order beyond non-decreasing ticks.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Consume one event. Called from the run's (single) thread. */
    virtual void record(const Event &event) = 0;
};

/**
 * The default sink: an in-memory, append-only event log. Recording
 * is one vector push; exporting and analysis happen after the run.
 *
 * Each thread keeps one spare log. A default-constructed sink starts
 * from that spare, emptied but with its capacity, and a destroyed
 * sink hands its log back when the log holds more capacity than the
 * spare. This pays only for back-to-back sinks on one thread: a
 * thread that destroys a sink and then builds another, as a loop
 * that records runs one after another with a fresh sink each does.
 * Such a run records into storage that is already mapped instead of
 * regrowing it from nothing. The quetzal-sim CLI and the scenario
 * engine build all their sinks at once, so they neither gain nor pay
 * more than one swap per sink. The spare keeps the largest log the
 * thread has seen until the thread exits. A sink feeds the spare of
 * the thread that destroys it, whichever thread built it; a sink
 * destroyed after its thread's spare (a static or thread_local one)
 * frees its own log.
 */
class VectorSink : public TraceSink
{
  public:
    VectorSink();
    VectorSink(const VectorSink &) = default;
    VectorSink(VectorSink &&) noexcept = default;
    VectorSink &operator=(const VectorSink &) = default;
    VectorSink &operator=(VectorSink &&) noexcept = default;
    ~VectorSink() override;

    void record(const Event &event) override
    {
        log.push_back(event);
    }

    /** The recorded stream, in recording order. */
    const std::vector<Event> &events() const { return log; }

    /** Number of events recorded. */
    std::size_t size() const { return log.size(); }

    /** Drop everything (capacity retained). */
    void clear() { log.clear(); }

  private:
    std::vector<Event> log;
};

/**
 * The handle instrumented code holds: an observation level, a sink,
 * and the run's current simulated time. The simulator advances the
 * clock; decision-layer code (Controller, policies) records against
 * it without needing the tick plumbed through every call.
 *
 * At ObsLevel::Off the recorder is inert: wants() is a null-pointer
 * test, no Event is ever constructed, and no virtual call happens —
 * the property the micro_simulator overhead gate (±2 %) relies on.
 */
class Recorder
{
  public:
    /** Inert recorder (level Off). */
    Recorder() = default;

    /**
     * @param level how much to record (Off makes the recorder inert
     *        regardless of sink)
     * @param sink per-run sink; nullptr makes the recorder inert
     */
    Recorder(ObsLevel level, TraceSink *sink)
        : sink_(level == ObsLevel::Off ? nullptr : sink), level_(level)
    {
    }

    /** True when any recording at all is happening. */
    bool enabled() const { return sink_ != nullptr; }

    /** True when events of this kind should be recorded. */
    bool wants(EventKind kind) const
    {
        return sink_ != nullptr && level_ >= minLevel(kind);
    }

    /** Configured level. */
    ObsLevel level() const { return sink_ ? level_ : ObsLevel::Off; }

    /** Advance the run clock (simulated ticks, never wall time). */
    void setTime(Tick now) { now_ = now; }

    /** Current run clock. */
    Tick time() const { return now_; }

    /**
     * Record an event stamped with the current run clock. Call only
     * after wants() returned true for the event's kind.
     */
    void record(Event event)
    {
        event.tick = now_;
        ++recorded_;
        sink_->record(event);
    }

    /** Record an event with an explicit timestamp. */
    void recordAt(Tick tick, Event event)
    {
        event.tick = tick;
        ++recorded_;
        sink_->record(event);
    }

    /**
     * Events recorded through this handle so far. The telemetry
     * self-cost model (SimulationConfig::telemetry*PerEvent) charges
     * the run for the delta between readings.
     */
    std::uint64_t recordedCount() const { return recorded_; }

  private:
    TraceSink *sink_ = nullptr;
    ObsLevel level_ = ObsLevel::Off;
    Tick now_ = 0;
    std::uint64_t recorded_ = 0;
};

} // namespace obs
} // namespace quetzal

#endif // QUETZAL_OBS_TRACE_SINK_HPP
