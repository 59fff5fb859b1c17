/**
 * @file
 * FaultInjector: the seeded runtime that turns a declarative
 * FaultSpec into concrete perturbations at the simulator's seams
 * (DESIGN.md section 12).
 *
 * Determinism contract: every draw comes from streams forked from
 * (spec.seed, run seed), draws never depend on whether a telemetry
 * recorder is attached, and no wall-clock or address-dependent state
 * is consulted — so a faulted run is a pure function of its
 * configuration, exactly like a clean one, and golden faulted traces
 * are byte-identical across --jobs values.
 *
 * Telemetry contract: every perturbation is reported as a typed
 * obs::EventKind::FaultInjected event (persistent faults once at run
 * start, windowed and point faults as simulated time reaches them),
 * and the prediction-error monitor reports FaultDetected /
 * FaultMitigated episodes. All events are stamped with the recorder's
 * run clock, preserving the non-decreasing-tick sink contract.
 */

#ifndef QUETZAL_FAULT_FAULT_INJECTOR_HPP
#define QUETZAL_FAULT_FAULT_INJECTOR_HPP

#include <cstdint>
#include <vector>

#include "energy/power_trace.hpp"
#include "fault/fault_spec.hpp"
#include "obs/trace_sink.hpp"
#include "util/random.hpp"
#include "util/types.hpp"

namespace quetzal::util::wire {
class Archive;
}

namespace quetzal {
namespace fault {

/**
 * Per-run fault runtime. Construct, prepare() with the run horizon,
 * then hand to the simulator via sim::SimulationConfig::faults.
 */
class FaultInjector
{
  public:
    /** One scheduled fault window (or point occurrence). */
    struct Window
    {
        Tick start = 0;
        Tick end = 0; ///< right-open; == start for point faults
        FaultClass cls = FaultClass::PowerDropout;
        double magnitude = 0.0;

        /** Checkpoint wire layout: varint start and end, class byte,
         *  bit-exact magnitude. */
        void walk(util::wire::Archive &ar);
    };

    /**
     * @param spec the fault model (typically non-inert; an inert spec
     *        yields a transparent injector)
     * @param runSeed the owning run's seed, mixed into every stream
     */
    FaultInjector(const FaultSpec &spec, std::uint64_t runSeed);

    const FaultSpec &spec() const { return spec_; }

    /**
     * Draw all windowed faults over [0, horizon). Must be called
     * exactly once, before the run starts.
     */
    void prepare(Tick horizon);

    /**
     * The clean harvested-power trace with dropout/spike windows
     * spliced in. Requires prepare().
     */
    energy::PowerTrace perturbPowerTrace(
        const energy::PowerTrace &clean) const;

    /** Attach the run's recorder (may be null; must outlive this). */
    void setObserver(obs::Recorder *observer) { observer_ = observer; }

    /** @name Simulator hooks */
    /// @{
    /** Emit injection events for persistent faults (run clock 0). */
    void onRunStart();

    /** Emit injection events for windows whose start has passed. */
    void onTick(Tick now);

    /** The measured (possibly lying) input power for a true power. */
    Watts perturbMeasuredPower(Watts truePower);

    /** True when `now` falls inside an arrival-burst window. */
    bool forceCaptureDifferent(Tick now);

    /** Signed capture-instant jitter draw, in ticks (0 when off). */
    Tick captureJitter();

    /** Possibly stretched execution cost for one task. */
    Tick perturbExecutionTicks(Tick ticks);

    /**
     * Feed one job's (predicted, observed) service pair into the
     * detection/mitigation monitor. pidOutput is the controller's
     * current correction (reported in FaultMitigated events).
     */
    void observePrediction(double predictedSeconds,
                           double observedSeconds, double pidOutput);
    /// @}

    /** @name Introspection (tests, reports) */
    /// @{
    /** All scheduled windows, sorted by start. */
    const std::vector<Window> &windows() const { return windows_; }

    std::uint64_t injectedCount() const { return injected_; }
    std::uint64_t detectedCount() const { return detected_; }
    std::uint64_t mitigatedCount() const { return mitigated_; }
    /// @}

    /**
     * @name Checkpoint
     * Serialize / restore the injector's mutable runtime state: all
     * four RNG streams, the scheduled windows, the announcement and
     * burst cursors, the counters and the detection-episode state.
     * The restoring injector must be built from the same (spec,
     * runSeed) and prepare()d with the same horizon. One walk saves
     * or loads, by the archive's mode; a load that fails (malformed
     * bytes, a preparedness mismatch, a cursor past the windows)
     * leaves the injector untouched and the archive failed.
     */
    void checkpoint(util::wire::Archive &ar);

  private:
    /** Append exponential-gap windows of one class to windows_. */
    void drawWindows(util::Rng &rng, Tick horizon, double perHour,
                     double widthSeconds, FaultClass cls,
                     double magnitude);

    /** Record one FaultInjected event (and count it). */
    void emitInjected(FaultClass cls, Tick windowEnd, double magnitude);

    FaultSpec spec_;
    obs::Recorder *observer_ = nullptr;

    util::Rng measurementRng;
    util::Rng executionRng;
    util::Rng jitterRng;
    util::Rng windowRng;

    bool prepared = false;
    std::vector<Window> windows_; ///< sorted by start, all classes
    std::size_t pendingWindow = 0; ///< next windows_ entry to announce
    std::size_t burstCursor = 0;  ///< monotone arrival-burst lookup

    std::uint64_t injected_ = 0;
    std::uint64_t detected_ = 0;
    std::uint64_t mitigated_ = 0;

    /** Detection episode state (see FaultSpec thresholds). */
    bool inEpisode = false;
    std::uint32_t calmStreak = 0;
    std::uint64_t episodeSeq = 0;
};

} // namespace fault
} // namespace quetzal

#endif // QUETZAL_FAULT_FAULT_INJECTOR_HPP
