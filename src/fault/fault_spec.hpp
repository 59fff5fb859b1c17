/**
 * @file
 * Declarative fault model for deterministic robustness experiments
 * (DESIGN.md section 12).
 *
 * A FaultSpec describes *what* can go wrong in a run — measurement
 * bias/noise on the estimator path, ADC bit faults, harvested-power
 * dropouts and spikes, arrival bursts and capture-clock jitter, and
 * transient execution overruns — without saying *when*: timing is
 * drawn by the FaultInjector from an explicit seed, so a faulted run
 * is exactly as repeatable as a clean one. The default-constructed
 * spec is inert(): every field is the identity, and the experiment
 * layer skips the fault machinery entirely, which is what keeps
 * clean outputs byte-identical to a build without this subsystem.
 */

#ifndef QUETZAL_FAULT_FAULT_SPEC_HPP
#define QUETZAL_FAULT_FAULT_SPEC_HPP

#include <cstddef>
#include <cstdint>

#include "util/types.hpp"

namespace quetzal {
namespace fault {

/**
 * Persistent corruption of the measured input power handed to the
 * controller (the paper's section 5.1 sensing path). The device's
 * true harvested energy is untouched — only the estimator is lied to,
 * which is precisely the regime the PID loop (section 4.3) exists
 * to correct.
 */
struct MeasurementFault
{
    /** Additive bias on every measured input power, in watts. */
    Watts biasWatts = 0.0;
    /** Multiplicative log-normal noise sigma (0 = noise-free). */
    double noiseSigma = 0.0;

    bool active() const { return biasWatts != 0.0 || noiseSigma > 0.0; }
};

/**
 * Hardware bit faults on every quantized ADC code (applied through
 * hw::AdcConfig, so profile-time and runtime reads are equally
 * affected — it is a hardware defect, not a software one).
 */
struct AdcFault
{
    std::uint8_t stuckHighMask = 0; ///< bits that always read 1
    std::uint8_t stuckLowMask = 0;  ///< bits that always read 0
    std::uint8_t flipMask = 0;      ///< bits that read inverted
    std::uint8_t saturateMax = 255; ///< codes clamp to this ceiling

    bool active() const
    {
        return stuckHighMask != 0 || stuckLowMask != 0 ||
            flipMask != 0 || saturateMax != 255;
    }
};

/**
 * Windows spliced into the harvested-power trace: dropouts force the
 * power to zero (shadowing, connector glitches), spikes multiply it
 * (specular reflections). Window starts are drawn with exponential
 * gaps at the configured rates; widths are fixed.
 */
struct PowerTraceFault
{
    double dropoutsPerHour = 0.0;
    double dropoutSeconds = 0.0;
    double spikesPerHour = 0.0;
    double spikeSeconds = 0.0;
    double spikeFactor = 1.0; ///< multiplier inside spike windows

    bool active() const
    {
        return (dropoutsPerHour > 0.0 && dropoutSeconds > 0.0) ||
            (spikesPerHour > 0.0 && spikeSeconds > 0.0 &&
             spikeFactor != 1.0);
    }
};

/**
 * Arrival-side faults at capture time: burst windows force every
 * captured frame to be "different" (so it is compressed and queued,
 * stressing the input buffer), and capture-clock jitter perturbs the
 * nominally strict capture period.
 */
struct ArrivalFault
{
    double burstsPerHour = 0.0;
    double burstSeconds = 0.0;
    /** Uniform capture-instant jitter in [-j, +j] milliseconds. */
    Tick captureJitterMs = 0;

    bool active() const
    {
        return (burstsPerHour > 0.0 && burstSeconds > 0.0) ||
            captureJitterMs > 0;
    }
};

/** Transient per-task execution overruns (cache, retries, NVM wear). */
struct ExecutionFault
{
    double overrunProbability = 0.0;
    double overrunFactor = 1.0; ///< execution-time multiplier

    bool active() const
    {
        return overrunProbability > 0.0 && overrunFactor != 1.0;
    }
};

/**
 * The full fault axis of a run. Combined with the run's own seed by
 * the FaultInjector, so sweeping the run seed re-times every fault
 * while the fault *model* stays fixed.
 */
struct FaultSpec
{
    /** Fault-timing seed, mixed with the run seed. */
    std::uint64_t seed = 1;

    MeasurementFault measurement;
    AdcFault adc;
    PowerTraceFault powerTrace;
    ArrivalFault arrivals;
    ExecutionFault execution;

    /**
     * @name Detection / mitigation thresholds
     * A prediction error above detectErrorSeconds while faults are
     * active opens a detection episode; mitigateStreak consecutive
     * jobs back under the threshold close it as mitigated (the PID
     * loop's measurable job, paper section 4.3).
     */
    /// @{
    double detectErrorSeconds = 1.0;
    std::uint32_t mitigateStreak = 3;
    /// @}

    /** True when no fault class is active (the default). */
    bool inert() const
    {
        return !measurement.active() && !adc.active() &&
            !powerTrace.active() && !arrivals.active() &&
            !execution.active();
    }
};

/** Typed fault classes, as reported in FaultInjected events. */
enum class FaultClass : std::uint8_t {
    MeasurementBias = 0,
    MeasurementNoise,
    AdcCode,
    PowerDropout,
    PowerSpike,
    ArrivalBurst,
    CaptureJitter,
    ExecOverrun,
};

/** Number of distinct fault classes. */
constexpr std::size_t kFaultClassCount = 8;

} // namespace fault
} // namespace quetzal

#endif // QUETZAL_FAULT_FAULT_SPEC_HPP
