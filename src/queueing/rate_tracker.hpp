/**
 * @file
 * Windowed estimators for the input-arrival rate (lambda) and
 * per-task execution probability (paper sections 3.3 and 4.1).
 *
 * Lambda is measured over the paper's <arrival-window> most recent
 * capture periods. Arrivals into the queue are (a) captures that
 * survive the cheap pre-filter and (b) re-insertions performed when
 * one job spawns another for the same input (section 3.1) — both
 * occupy buffer slots, so both must count toward the Little's-Law
 * arrival rate. Because a period can see more than one arrival (a
 * capture plus a spawn), the window stores small per-period counts
 * with a running sum instead of single bits; a task's execution
 * probability remains a plain bit window.
 */

#ifndef QUETZAL_QUEUEING_RATE_TRACKER_HPP
#define QUETZAL_QUEUEING_RATE_TRACKER_HPP

#include <cstdint>
#include <vector>

#include "queueing/bitvector_window.hpp"

namespace quetzal::util::wire {
class Archive;
}

namespace quetzal {
namespace queueing {

/**
 * Estimates the input-arrival rate lambda over the paper's
 * <arrival-window> most recent capture periods.
 */
class ArrivalRateTracker
{
  public:
    /**
     * @param windowPeriods the paper's <arrival-window> (default 256)
     * @param captureHz     capture attempts per second (paper: 1 FPS)
     */
    explicit ArrivalRateTracker(std::uint32_t windowPeriods = 256,
                                double captureHz = 1.0);

    /**
     * Open a new capture period (called once per capture attempt),
     * evicting the oldest period once the window is full.
     */
    void beginPeriod();

    /** Record one queue insertion (capture store or job spawn). */
    void recordInsertion();

    /** Convenience: beginPeriod() plus an insertion when stored. */
    void recordCapture(bool stored);

    /**
     * Estimated arrivals per second: the maximum of the full-window
     * average and the recent-burst average (the last
     * kBurstPeriods periods). Bursts shorter than the
     * <arrival-window> would otherwise be diluted below the rate the
     * IBO engine must react to; taking the max keeps the estimate
     * conservative (over-predicting E[N] degrades a little early,
     * under-predicting loses inputs). Before the first period the
     * tracker conservatively reports the full capture rate.
     */
    double arrivalsPerSecond() const;

    /** Recent periods considered by the burst estimate. */
    static constexpr std::uint32_t kBurstPeriods = 16;

    /** Mean insertions per capture period (can exceed 1 with spawns). */
    double insertionsPerPeriod() const;

    /** Mean insertions per period over the last kBurstPeriods. */
    double burstInsertionsPerPeriod() const;

    /** Periods recorded so far (saturating at the window size). */
    std::uint32_t filled() const { return filledPeriods; }

    /** Mutable internals for checkpoint/restore (the window size and
     *  capture rate are configuration, not state). */
    struct State
    {
        std::vector<std::uint8_t> counts;
        std::uint32_t cursor = 0;
        std::uint32_t filledPeriods = 0;
        std::uint32_t runningSum = 0;

        /**
         * The wire layout: varint period count, one varint per
         * period, varint cursor, filledPeriods, runningSum. The
         * window size is configuration: load walks into a snapshot
         * exported from the restoring tracker and rejects a count
         * other than its own, and a cursor or fill level past it.
         */
        void walk(util::wire::Archive &ar);
    };

    /** Snapshot the tracker contents (see State). */
    State exportState() const
    {
        return State{counts, cursor, filledPeriods, runningSum};
    }

    /** Restore a snapshot taken against the same window size. */
    void importState(const State &snapshot)
    {
        counts = snapshot.counts;
        cursor = snapshot.cursor;
        filledPeriods = snapshot.filledPeriods;
        runningSum = snapshot.runningSum;
        burstSum = sumBurst();
    }

  private:
    /** Sum of the last min(filled, kBurstPeriods) periods' counts. */
    std::uint32_t sumBurst() const;

    std::vector<std::uint8_t> counts;
    std::uint32_t cursor = 0;
    std::uint32_t filledPeriods = 0;
    std::uint32_t runningSum = 0;
    /** sumBurst(), kept up to date per period and insertion; derived,
     *  so not part of State. */
    std::uint32_t burstSum = 0;
    double captureHz;
};

/**
 * Estimates one task's execution probability over the paper's
 * <task-window> most recent completed jobs.
 */
class ExecutionProbabilityTracker
{
  public:
    /** @param windowBits the paper's <task-window> (default 64) */
    explicit ExecutionProbabilityTracker(std::uint32_t windowBits = 64);

    /**
     * Record whether the task executed for a completed input. The
     * runtime appends to all of a job's tasks' trackers atomically on
     * job completion (section 5.1).
     */
    void recordExecution(bool executed);

    /**
     * Estimated execution probability in [0, 1]. Unobserved tasks
     * report 1.0 — the conservative assumption that the task will
     * run, which over-predicts E[S] rather than missing IBOs.
     */
    double probability() const { return window.fraction(1.0); }

    /** Number of observations (saturating at window). */
    std::uint32_t filled() const { return window.filled(); }

    /** Snapshot the underlying bit window for checkpoint/restore. */
    BitVectorWindow::State exportState() const
    {
        return window.exportState();
    }

    /** Restore a snapshot taken against the same window size. */
    void importState(const BitVectorWindow::State &snapshot)
    {
        window.importState(snapshot);
    }

  private:
    BitVectorWindow window;
};

} // namespace queueing
} // namespace quetzal

#endif // QUETZAL_QUEUEING_RATE_TRACKER_HPP
