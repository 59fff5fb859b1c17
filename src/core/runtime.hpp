/**
 * @file
 * Controller: the runtime object that glues one scheduling policy, a
 * service-time estimator and (optionally) the PID error-mitigation
 * loop into the decision pipeline of Figure 5:
 *
 *   input leaves queue -> policy ranks the job -> policy admits it at
 *   chosen degradation options -> job runs -> completion feeds the
 *   trackers, the estimator and the PID controller.
 *
 * Quetzal itself is one Controller configuration (Energy-aware SJF +
 * IBO engine policy, energy-aware estimator, PID); every baseline in
 * the paper is another configuration of the same machinery, which is
 * what makes the head-to-head experiments apples-to-apples. The
 * configurations are rows of the table in policy/registry.hpp.
 */

#ifndef QUETZAL_CORE_RUNTIME_HPP
#define QUETZAL_CORE_RUNTIME_HPP

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pid.hpp"
#include "core/scheduler.hpp"
#include "core/system.hpp"
#include "obs/trace_sink.hpp"
#include "util/stats.hpp"

namespace quetzal::util::wire {
class Archive;
}

namespace quetzal {
namespace core {

/** The full decision for one job execution. */
struct JobSelection
{
    JobId jobId = 0;
    queueing::SlotId slot = 0; ///< buffer slot of the consumed input
    OptionVec optionPerTask;
    double predictedServiceSeconds = 0.0;
    /** Policy-declared energy bound for the job (0 = no bound). */
    double energyBoundJoules = 0.0;
    bool iboPredicted = false;
    bool degraded = false;
    /**
     * Sequence number of the scheduling round that produced this
     * selection (0-based, counts successful selections). Links a
     * decision's trace events (schedule, per-task E[S] terms, PID
     * update) to the observed outcome the simulator reports.
     */
    std::uint64_t decisionSeq = 0;
};

/** Aggregate counters a controller accumulates over a run. */
struct ControllerStats
{
    std::uint64_t iboPredictions = 0;
    std::uint64_t degradedJobs = 0;
    std::uint64_t jobsCompleted = 0;
    /** observed - predicted E[S] (only when a prediction was made). */
    util::RunningStats predictionError;
};

/**
 * One scheduling policy + runtime feedback loops.
 */
class Controller
{
  public:
    /**
     * @param pidConfig enable the section-4.3 PID loop when present
     */
    Controller(std::string name, std::unique_ptr<SchedulingPolicy> policy,
               std::unique_ptr<ServiceTimeEstimator> estimator,
               std::optional<PidConfig> pidConfig = std::nullopt);

    /** Display name (used in benchmark tables). */
    const std::string &name() const { return controllerName; }

    /**
     * Run one scheduling round: measure power, rank a job, admit it
     * at chosen degradation options. Returns nullopt when nothing is
     * queued.
     * @param runtime device-state snapshot placed in the policy's
     *        PolicyContext
     */
    std::optional<JobSelection>
    selectJob(TaskSystem &system, const queueing::InputBuffer &buffer,
              Watts truePower, const RuntimeObservation &runtime = {});

    /**
     * Report a capture dropped on buffer overflow; forwards to the
     * policy's onBufferOverflow hook (no-op for the paper's
     * policies).
     */
    void onInputDropped(const TaskSystem &system,
                        const queueing::InputBuffer &buffer,
                        const queueing::InputRecord &dropped, Tick now);

    /**
     * Report one task execution's observed end-to-end time (feeds
     * history-based estimators).
     */
    void onTaskComplete(const TaskSystem &system, TaskId task,
                        std::size_t optionIndex, double observedSeconds);

    /**
     * Report job completion: updates execution-probability windows
     * and advances the PID loop with the prediction error.
     * @param executedPerTask which of the job's tasks actually ran
     */
    void onJobComplete(TaskSystem &system, const JobSelection &selection,
                       const ExecutedVec &executedPerTask,
                       double observedSeconds);

    /** Current PID output (0 when the loop is disabled). */
    double pidCorrection() const;

    /**
     * Attach a telemetry recorder (see obs::Recorder). The recorder
     * must outlive the controller's use; pass nullptr to detach.
     * Decision events (scheduler pick with per-task E[S] terms, IBO
     * prediction, degradation choice, PID error/output) are recorded
     * against the recorder's run clock.
     */
    void setObserver(obs::Recorder *recorder) { observer = recorder; }

    /** Counters accumulated so far. */
    const ControllerStats &stats() const { return runStats; }

    /** Collaborator access (tests and benches). */
    const SchedulingPolicy &policy() const { return *schedPolicy; }
    SchedulingPolicy &policy() { return *schedPolicy; }
    ServiceTimeEstimator &estimator() { return *serviceEstimator; }

    /**
     * Checkpoint: one walk that saves or loads the controller's
     * mutable runtime state, by the archive's mode — counters, the
     * PID loop, and the estimator's and policy's state hooks, each in
     * a length-prefixed blob of its own. Which policy and estimator
     * run is configuration: the restoring controller must be built
     * identically, and the policy hook checks its blob against
     * `system`. A load that fails (malformed bytes, a PID-presence
     * mismatch, a hook that reads short or long or refuses its blob)
     * leaves the counters and PID loop untouched and the archive
     * failed.
     */
    void checkpoint(const TaskSystem &system, util::wire::Archive &ar);

  private:
    std::string controllerName;
    std::unique_ptr<SchedulingPolicy> schedPolicy;
    std::unique_ptr<ServiceTimeEstimator> serviceEstimator;
    std::optional<PidController> pid;
    ControllerStats runStats;
    obs::Recorder *observer = nullptr;
    std::uint64_t decisionCounter = 0;
};

} // namespace core
} // namespace quetzal

#endif // QUETZAL_CORE_RUNTIME_HPP
