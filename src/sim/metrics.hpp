/**
 * @file
 * Experiment metrics — exactly the quantities the paper's figures
 * report: interesting inputs discarded (split into IBO drops and ML
 * false negatives), radio packets by quality and ground-truth
 * interestingness, adaptation/dynamics counters, and capture-side
 * accounting for the capture-rate study (Figure 2b).
 */

#ifndef QUETZAL_SIM_METRICS_HPP
#define QUETZAL_SIM_METRICS_HPP

#include <cstdint>
#include <iosfwd>
#include <string>

#include "util/stats.hpp"
#include "util/types.hpp"

namespace quetzal::util::wire {
class Archive;
}

namespace quetzal {
namespace sim {

/** All counters collected over one experiment run. */
struct Metrics
{
    /** @name Environment ground truth */
    /// @{
    std::uint64_t eventsTotal = 0;
    std::uint64_t eventsInteresting = 0;
    /** Interesting inputs available at the nominal 1 FPS rate —
     *  the denominator of "% of all interesting inputs". */
    std::uint64_t interestingInputsNominal = 0;
    /// @}

    /** @name Capture side */
    /// @{
    std::uint64_t captures = 0;
    std::uint64_t interestingCaptured = 0;
    std::uint64_t uninterestingCaptured = 0;
    std::uint64_t storedInputs = 0;
    /// @}

    /** @name Losses */
    /// @{
    std::uint64_t iboDropsInteresting = 0;
    std::uint64_t iboDropsUninteresting = 0;
    std::uint64_t fnDiscards = 0;       ///< interesting judged negative
    std::uint64_t fpPositives = 0;      ///< uninteresting judged positive
    std::uint64_t unprocessedInteresting = 0; ///< left in buffer at end
    /// @}

    /** @name Transmissions */
    /// @{
    std::uint64_t txInterestingHq = 0;
    std::uint64_t txInterestingLq = 0;
    std::uint64_t txUninterestingHq = 0;
    std::uint64_t txUninterestingLq = 0;
    /// @}

    /** @name Dynamics */
    /// @{
    std::uint64_t jobsCompleted = 0;
    std::uint64_t degradedJobs = 0;
    std::uint64_t iboPredictions = 0;
    std::uint64_t powerFailures = 0;
    std::uint64_t checkpointSaves = 0;
    Tick rechargeTicks = 0;
    Tick activeTicks = 0;
    Tick rolledBackTicks = 0; ///< re-executed work (Periodic policy)
    Tick simulatedTicks = 0;
    /** Jobs whose input aged past capacity x capture-period before
     *  completion (the tournament's staleness column). */
    std::uint64_t deadlineMisses = 0;
    /** Harvest rejected because storage was full (tournament's
     *  energy-wasted column). */
    Joules energyWastedJoules = 0.0;
    double schedulerOverheadSeconds = 0.0;
    Joules schedulerOverheadEnergy = 0.0;
    /** Modeled cost of the telemetry layer itself (see
     *  SimulationConfig::telemetrySecondsPerEvent); 0 unless the
     *  measurement-overhead knobs are set. */
    double telemetryOverheadSeconds = 0.0;
    Joules telemetryOverheadEnergy = 0.0;
    util::RunningStats jobServiceSeconds;
    util::RunningStats predictionErrorSeconds;
    /// @}

    /** The checkpoint wire layout: every field above in declaration
     *  order (counters and ticks as varints, doubles bit-exact). */
    void walk(util::wire::Archive &ar);

    /** @name Derived quantities (the figures' axes) */
    /// @{
    /** Interesting inputs missed before buffering (capture-rate
     *  degradation, Figure 2b). */
    std::uint64_t interestingMissedAtCapture() const;

    /** Interesting inputs discarded: IBO + FN + unprocessed. */
    std::uint64_t interestingDiscardedTotal() const;

    /** Discarded as % of all (nominal) interesting inputs. */
    double interestingDiscardedPct() const;

    /** IBO-only discards as % of all interesting inputs. */
    double iboDiscardedPct() const;

    /** FN-only discards as % of all interesting inputs. */
    double fnDiscardedPct() const;

    /** Total interesting transmissions. */
    std::uint64_t txInterestingTotal() const;

    /** Fraction of interesting transmissions at high quality. */
    double highQualityShare() const;
    /// @}

    /** Multi-line human-readable report. */
    void printReport(std::ostream &out, const std::string &label) const;
};

/** @name Standard discard/report table (figures 9-13)
 *  Shared by the bench drivers and the scenario engine so both paths
 *  print byte-identical tables. Output goes to stdout (printf
 *  formatting, matching the historical bench output).
 */
/// @{
/** Header row of the standard discard/report table. */
void printDiscardTableHeader();

/** One row of the standard discard/report table. */
void printDiscardTableRow(const std::string &label, const Metrics &m);

/** "A discards Nx fewer than B" ratio with zero protection. */
double discardRatio(const Metrics &baseline, const Metrics &quetzal);

/** IBO-only discard ratio (IBO drops + unprocessed leftovers). */
double iboRatio(const Metrics &baseline, const Metrics &quetzal);
/// @}

} // namespace sim
} // namespace quetzal

#endif // QUETZAL_SIM_METRICS_HPP
