/**
 * @file
 * MetricsRegistry: counters + streaming histograms accumulated from
 * a run's event stream.
 *
 * Every headline counter the figures report is reconstructible from
 * the Counters-level event stream alone, and the registry is the
 * single implementation of that reconstruction: tools/trace_stat,
 * the scenario and fleet rollups and perfbench's read-back all run
 * this code. sim::Simulator keeps its own live sim::Metrics
 * counters; the tests/obs cross-check replays a run's stream here
 * and demands that the two agree field by field. On top of the
 * counters it adds what end-of-run totals cannot show: streaming
 * histograms (p50/p95/p99 service time, queue depth, prediction
 * error) and IBO-prediction accuracy (precision/recall against the
 * observed overflow outcome of every scheduling decision).
 *
 * A registry is a TraceSink, so it can aggregate live (as a run's
 * sink) or replay a stream read back from a JSONL trace file.
 */

#ifndef QUETZAL_OBS_METRICS_REGISTRY_HPP
#define QUETZAL_OBS_METRICS_REGISTRY_HPP

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "obs/trace_sink.hpp"
#include "util/stats.hpp"

namespace quetzal {
namespace obs {

/**
 * Event-derived counters, field-compatible with the headline subset
 * of sim::Metrics (same names, same semantics).
 */
struct ReplayCounters
{
    std::uint64_t captures = 0;
    std::uint64_t interestingCaptured = 0;
    std::uint64_t uninterestingCaptured = 0;
    std::uint64_t storedInputs = 0;
    std::uint64_t iboDropsInteresting = 0;
    std::uint64_t iboDropsUninteresting = 0;
    std::uint64_t fnDiscards = 0;
    std::uint64_t fpPositives = 0;
    std::uint64_t txInterestingHq = 0;
    std::uint64_t txInterestingLq = 0;
    std::uint64_t txUninterestingHq = 0;
    std::uint64_t txUninterestingLq = 0;
    std::uint64_t jobsCompleted = 0;
    std::uint64_t degradedJobs = 0;
    std::uint64_t iboPredictions = 0;
    std::uint64_t powerFailures = 0;
    std::uint64_t checkpointSaves = 0;
    Tick rechargeTicks = 0;
    /** From the RunEnd event (0 until one is seen). */
    std::uint64_t eventsTotal = 0;
    std::uint64_t eventsInteresting = 0;
    std::uint64_t interestingInputsNominal = 0;
    std::uint64_t unprocessedInteresting = 0;
    Tick simulatedTicks = 0;
    /** Fault-layer lifecycle (src/fault); all zero on clean runs. */
    std::uint64_t faultsInjected = 0;
    std::uint64_t faultsDetected = 0;
    std::uint64_t faultsMitigated = 0;
    /** Fleet rollups (src/fleet); all zero outside fleet runs. The
     *  jobs/drops counters are summed from the rollups' deltas. */
    std::uint64_t fleetRollups = 0;
    std::uint64_t fleetJobsCompleted = 0;
    std::uint64_t fleetIboDrops = 0;
    double fleetEnergyWastedJoules = 0.0;
    /** Fleet checkpoint/restore episodes (src/fleet barrier
     *  snapshots); zero outside checkpointed fleet runs. */
    std::uint64_t fleetCheckpoints = 0;
    std::uint64_t fleetRestores = 0;
};

/**
 * Confusion matrix of IBO predictions against observed overflow
 * outcomes, one sample per scheduling decision.
 */
struct IboAccuracy
{
    std::uint64_t truePositives = 0;  ///< predicted and overflowed
    std::uint64_t falsePositives = 0; ///< predicted, no overflow
    std::uint64_t falseNegatives = 0; ///< missed an overflow
    std::uint64_t trueNegatives = 0;  ///< correctly quiet

    std::uint64_t total() const
    {
        return truePositives + falsePositives + falseNegatives +
            trueNegatives;
    }

    /** TP / (TP + FP); 1 when no prediction was ever made. */
    double precision() const;

    /** TP / (TP + FN); 1 when no overflow was ever observed. */
    double recall() const;
};

/**
 * Streaming aggregation of one run's event stream.
 */
class MetricsRegistry : public TraceSink
{
  public:
    MetricsRegistry();

    /** Consume one event (dispatch on kind). */
    void record(const Event &event) override;

    /** Headline counters reconstructed so far. */
    const ReplayCounters &counters() const { return replay; }

    /** IBO prediction accuracy so far. */
    const IboAccuracy &iboAccuracy() const { return ibo; }

    /** @name Streaming distributions */
    /// @{
    /** Per-job observed service seconds (from JobComplete). */
    const util::RunningStats &serviceStats() const { return serviceRun; }

    /** Buffer-occupancy samples (from BufferOccupancy). */
    const util::RunningStats &queueDepthStats() const { return depthRun; }

    /** observed - predicted E[S] samples (from PidUpdate). */
    const util::RunningStats &predictionErrorStats() const
    {
        return errorRun;
    }

    /** PID controller output samples (from PidUpdate). */
    const util::RunningStats &pidOutputStats() const { return pidRun; }
    /// @}

    /**
     * Degradation choices per packed per-task option pattern (e.g.
     * "0,1" = first task full quality, second degraded), counted over
     * ScheduleDecision events that degraded at least one task.
     */
    const std::map<std::string, std::uint64_t> &degradationCounts() const
    {
        return degradation;
    }

    /** Events consumed, total and per kind. */
    std::uint64_t eventCount() const { return consumed; }
    std::uint64_t eventCount(EventKind kind) const;

    /** Tick of the last event consumed. */
    Tick lastTick() const { return latest; }

    /** Human-readable multi-line summary. */
    void printSummary(std::ostream &out, const std::string &label) const;

  private:
    ReplayCounters replay;
    IboAccuracy ibo;
    util::Histogram serviceHist;
    util::Histogram depthHist;
    util::Histogram errorHist;
    util::RunningStats serviceRun;
    util::RunningStats depthRun;
    util::RunningStats errorRun;
    util::RunningStats pidRun;
    std::map<std::string, std::uint64_t> degradation;
    std::uint64_t consumed = 0;
    std::uint64_t perKind[kEventKindCount] = {};
    Tick latest = 0;
};

} // namespace obs
} // namespace quetzal

#endif // QUETZAL_OBS_METRICS_REGISTRY_HPP
