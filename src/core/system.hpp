/**
 * @file
 * TaskSystem: the registry and shared runtime state every controller
 * (Quetzal and all baselines) operates on.
 *
 * Owns the registered tasks and jobs, the power-measurement circuit
 * (used at profile time to record execution-power codes and at run
 * time to read input power), the arrival-rate tracker, and the
 * per-task execution-probability trackers. This is the software
 * library of paper section 5.1, host-side.
 */

#ifndef QUETZAL_CORE_SYSTEM_HPP
#define QUETZAL_CORE_SYSTEM_HPP

#include <string>
#include <vector>

#include "core/job.hpp"
#include "core/service_time.hpp"
#include "core/task.hpp"
#include "hw/power_monitor_circuit.hpp"
#include "queueing/rate_tracker.hpp"
#include "util/types.hpp"

namespace quetzal::util::wire {
class Archive;
}

namespace quetzal {
namespace core {

/** Configuration for a TaskSystem. */
struct SystemConfig
{
    std::uint32_t taskWindow = 64;     ///< paper Table 1
    std::uint32_t arrivalWindow = 256; ///< paper Table 1
    double captureHz = 1.0;            ///< capture attempts per second
    hw::CircuitConfig circuit;         ///< measurement hardware
};

/**
 * Registry plus live trackers. Mutation discipline: tasks/jobs are
 * registered up front; during a run only the trackers and circuit
 * state change.
 */
class TaskSystem
{
  public:
    explicit TaskSystem(const SystemConfig &config = {});

    /** Static configuration. */
    const SystemConfig &config() const { return cfg; }

    /** @name Registration (setup phase) */
    /// @{
    /**
     * Register a task with quality-ordered degradation options.
     * Profiles each option through the circuit (records its
     * execution-power ADC code and premultiplied latency table).
     */
    TaskId addTask(const std::string &name,
                   const std::vector<DegradationOptionSpec> &options);

    /**
     * Register a job over previously registered tasks. Validates the
     * paper's constraint of at most one degradable task per job.
     * @param onPositive successor job spawned on a positive outcome
     */
    JobId addJob(const std::string &name,
                 const std::vector<TaskId> &tasks,
                 std::optional<JobId> onPositive = std::nullopt);
    /// @}

    /** @name Lookup */
    /// @{
    const Task &
    task(TaskId id) const
    {
        if (id >= taskList.size())
            badId("task", id);
        return taskList[id];
    }

    const Job &
    job(JobId id) const
    {
        if (id >= jobList.size())
            badId("job", id);
        return jobList[id];
    }
    const std::vector<Task> &tasks() const { return taskList; }
    const std::vector<Job> &jobs() const { return jobList; }
    std::size_t taskCount() const { return taskList.size(); }
    std::size_t jobCount() const { return jobList.size(); }
    /// @}

    /** @name Live tracking */
    /// @{
    /** Record a capture attempt (stored into the buffer or not). */
    void recordCapture(bool stored);

    /**
     * Record a spawn re-insertion (section 3.1): one job re-entered
     * its input into the buffer for a successor job. Spawns occupy
     * buffer slots, so they count as queue arrivals for lambda.
     */
    void recordSpawn();

    /** Current lambda estimate (arrivals per second). */
    double arrivalsPerSecond() const;

    /**
     * Record a completed job: atomically appends one bit to each of
     * the job's tasks' execution windows (1 if the task ran for this
     * input, 0 if it was skipped), the paper's bit-vector update.
     * The resulting estimate is the probability a task executes
     * given its job is scheduled — the weight Alg. 1 uses.
     */
    void recordJobCompletion(const Job &job,
                             const ExecutedVec &executedPerTask);

    /** Execution-probability estimate for a task. */
    double
    executionProbability(TaskId id) const
    {
        if (id >= probTrackers.size())
            badId("task", id);
        return probTrackers[id].probability();
    }

    /**
     * Measure input power through the circuit: updates the physical
     * side and returns both the exact watts and the ADC code.
     */
    PowerReading measureInputPower(Watts truePower);

    /** Mutable circuit access (simulator drives temperature etc.). */
    hw::PowerMonitorCircuit &circuit() { return monitor; }
    const hw::PowerMonitorCircuit &circuit() const { return monitor; }
    /// @}

    /**
     * Checkpoint: one walk that saves or loads the live trackers and
     * circuit physical state, by the archive's mode. The registry
     * (tasks, jobs) and config are configuration: the restoring
     * system must be built identically, and a load fails when the
     * tracker count or a tracker's window disagrees with it (or on
     * malformed bytes), leaving the system untouched.
     * The measurement memo is dropped on restore — a miss re-measures
     * the exact code a hit would have replayed, so this is byte-inert.
     */
    void checkpoint(util::wire::Archive &ar);

  private:
    /** Cold panic path kept out of line so the lookups inline. */
    [[noreturn]] static void badId(const char *what, std::uint64_t id);

    SystemConfig cfg;
    hw::PowerMonitorCircuit monitor;
    std::vector<Task> taskList;
    std::vector<Job> jobList;
    queueing::ArrivalRateTracker arrivalTracker;
    std::vector<queueing::ExecutionProbabilityTracker> probTrackers;

    /**
     * Memo of the last input-power measurement. The harvested power
     * is piecewise-constant over multi-second trace segments while
     * jobs are scheduled every few milliseconds, so consecutive
     * measurements overwhelmingly repeat the same watts. The ADC
     * code is pure in (power, junction temperature, circuit config),
     * so replaying the cached code is bit-identical to re-measuring;
     * a temperature change invalidates the memo.
     */
    Watts lastMeasureWatts = 0.0;
    Kelvin lastMeasureTemperature = 0.0;
    std::uint8_t lastMeasureCode = 0;
    bool measureMemoValid = false;
};

} // namespace core
} // namespace quetzal

#endif // QUETZAL_CORE_SYSTEM_HPP
