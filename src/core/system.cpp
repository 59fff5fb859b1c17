#include "core/system.hpp"

#include "hw/ratio_engine.hpp"
#include "util/logging.hpp"
#include "util/wire.hpp"

namespace quetzal {
namespace core {

TaskSystem::TaskSystem(const SystemConfig &config)
    : cfg(config), monitor(config.circuit),
      arrivalTracker(config.arrivalWindow, config.captureHz)
{
}

TaskId
TaskSystem::addTask(const std::string &name,
                    const std::vector<DegradationOptionSpec> &options)
{
    if (taskList.size() >= kMaxTasks)
        util::fatal(util::msg("task limit of ", kMaxTasks, " exceeded"));
    if (options.empty())
        util::fatal(util::msg("task '", name, "' needs options"));

    std::vector<DegradationOption> profiled;
    profiled.reserve(options.size());
    for (const auto &spec : options) {
        DegradationOption opt;
        opt.name = spec.name;
        opt.exeTicks = spec.exeTicks;
        opt.execPower = spec.execPower;
        // Profile phase (paper section 4.1): run the option while the
        // circuit measures its execution power; record the ADC code
        // and fill the premultiplied latency table.
        monitor.setExecutionPower(spec.execPower);
        const std::uint8_t code = monitor.measureExecutionCode();
        opt.hwProfile = hw::RatioEngine::makeProfile(spec.exeTicks, code);
        profiled.push_back(std::move(opt));
    }

    const auto id = static_cast<TaskId>(taskList.size());
    taskList.emplace_back(id, name, std::move(profiled));
    probTrackers.emplace_back(cfg.taskWindow);
    return id;
}

JobId
TaskSystem::addJob(const std::string &name,
                   const std::vector<TaskId> &tasks,
                   std::optional<JobId> onPositive)
{
    if (tasks.empty())
        util::fatal(util::msg("job '", name, "' needs tasks"));

    Job job;
    job.id = static_cast<JobId>(jobList.size());
    job.name = name;
    job.tasks = tasks;
    job.onPositive = onPositive;

    for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (tasks[i] >= taskList.size())
            util::fatal(util::msg("job '", name, "' references unknown "
                                  "task ", tasks[i]));
        if (taskList[tasks[i]].degradable()) {
            if (job.degradableIndex)
                util::fatal(util::msg("job '", name, "' has more than "
                                      "one degradable task"));
            job.degradableIndex = i;
        }
    }

    jobList.push_back(std::move(job));
    return jobList.back().id;
}

void
TaskSystem::badId(const char *what, std::uint64_t id)
{
    util::panic(util::msg("unknown ", what, " id ", id));
}

void
TaskSystem::recordCapture(bool stored)
{
    arrivalTracker.recordCapture(stored);
}

void
TaskSystem::recordSpawn()
{
    arrivalTracker.recordInsertion();
}

double
TaskSystem::arrivalsPerSecond() const
{
    return arrivalTracker.arrivalsPerSecond();
}

void
TaskSystem::recordJobCompletion(const Job &job,
                                const ExecutedVec &executedPerTask)
{
    if (executedPerTask.size() != job.tasks.size())
        util::panic("executed flags do not match job task count");

    // Atomic window update (paper section 5.1): one bit per task of
    // the completed job. The estimate is the probability a task runs
    // *given its job was scheduled* — exactly the weight Alg. 1 needs
    // (conditional tasks inside a job dilute its E[S]; tasks of other
    // jobs are not diluted by this job's completions).
    for (std::size_t i = 0; i < job.tasks.size(); ++i)
        probTrackers[job.tasks[i]].recordExecution(executedPerTask[i]);
}

PowerReading
TaskSystem::measureInputPower(Watts truePower)
{
    monitor.setInputPower(truePower);
    PowerReading reading;
    reading.watts = truePower;
    if (measureMemoValid && truePower == lastMeasureWatts &&
        monitor.temperature() == lastMeasureTemperature) {
        // Keep the digital-side state identical to a real read.
        monitor.select(hw::Channel::Vin);
        reading.code = lastMeasureCode;
        return reading;
    }
    reading.code = monitor.measureInputCode();
    lastMeasureWatts = truePower;
    lastMeasureTemperature = monitor.temperature();
    lastMeasureCode = reading.code;
    measureMemoValid = true;
    return reading;
}

void
TaskSystem::checkpoint(util::wire::Archive &ar)
{
    // Walk snapshots exported from the live trackers, so the window
    // sizes the bytes must match arrive pre-set.
    hw::PowerMonitorCircuit::State circuit = monitor.exportState();
    circuit.walk(ar);
    queueing::ArrivalRateTracker::State arrivals =
        arrivalTracker.exportState();
    arrivals.walk(ar);
    // The tracker count is fixed by task registration.
    std::vector<queueing::BitVectorWindow::State> windows;
    windows.reserve(probTrackers.size());
    for (const auto &tracker : probTrackers)
        windows.push_back(tracker.exportState());
    ar.check(ar.count(windows.size()) == windows.size());
    for (queueing::BitVectorWindow::State &window : windows)
        window.walk(ar);
    if (!ar.loaded())
        return;

    monitor.importState(circuit);
    arrivalTracker.importState(arrivals);
    for (std::size_t i = 0; i < probTrackers.size(); ++i)
        probTrackers[i].importState(windows[i]);
    // Drop the measurement memo: a miss re-measures the exact code a
    // hit would have replayed, so this cannot change any output byte.
    measureMemoValid = false;
}

} // namespace core
} // namespace quetzal
