#include "core/runtime.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/wire.hpp"

namespace quetzal {
namespace core {

Controller::Controller(std::string name,
                       std::unique_ptr<SchedulingPolicy> policy,
                       std::unique_ptr<ServiceTimeEstimator> estimator,
                       std::optional<PidConfig> pidConfig)
    : controllerName(std::move(name)), schedPolicy(std::move(policy)),
      serviceEstimator(std::move(estimator))
{
    if (!schedPolicy || !serviceEstimator)
        util::fatal("controller requires a policy and an estimator");
    if (pidConfig)
        pid.emplace(*pidConfig);
}

std::optional<JobSelection>
Controller::selectJob(TaskSystem &system,
                      const queueing::InputBuffer &buffer, Watts truePower,
                      const RuntimeObservation &runtime)
{
    const PowerReading power = system.measureInputPower(truePower);
    const PolicyContext ctx{system, buffer, *serviceEstimator, power,
                            pidCorrection(), runtime};

    const auto decision = schedPolicy->rank(ctx);
    if (!decision)
        return std::nullopt;

    const Job &job = system.job(decision->jobId);
    AdaptationDecision adapted = schedPolicy->admit(ctx, job);

    JobSelection selection;
    selection.jobId = decision->jobId;
    selection.slot = decision->slot;
    selection.optionPerTask = std::move(adapted.optionPerTask);
    if (selection.optionPerTask.empty())
        selection.optionPerTask.assign(job.tasks.size(), 0);
    selection.predictedServiceSeconds =
        adapted.predictedServiceSeconds > 0.0 ?
        adapted.predictedServiceSeconds : decision->expectedServiceSeconds;
    selection.energyBoundJoules = decision->energyBoundJoules;
    selection.iboPredicted = adapted.iboPredicted;
    selection.degraded = adapted.degraded;
    selection.decisionSeq = decisionCounter++;

    if (adapted.iboPredicted)
        ++runStats.iboPredictions;
    if (adapted.degraded)
        ++runStats.degradedJobs;

    if (observer != nullptr &&
        observer->wants(obs::EventKind::ScheduleDecision)) {
        obs::Event event;
        event.kind = obs::EventKind::ScheduleDecision;
        event.id = selection.decisionSeq;
        event.value = static_cast<std::int64_t>(selection.jobId);
        event.extra = static_cast<std::int64_t>(buffer.size());
        event.a = selection.predictedServiceSeconds;
        event.b = power.watts;
        event.options = obs::packOptions(selection.optionPerTask);
        if (selection.iboPredicted)
            event.flags |= obs::kFlagIboPredicted;
        if (selection.degraded)
            event.flags |= obs::kFlagDegraded;
        observer->record(event);
    }
    if (observer != nullptr &&
        observer->wants(obs::EventKind::TaskService)) {
        // The per-task terms behind the E[S] sum of Alg. 1 line 4:
        // estimate(option, P_in) weighted by execution probability.
        for (std::size_t i = 0; i < job.tasks.size(); ++i) {
            const TaskId taskId = job.tasks[i];
            const Task &task = system.task(taskId);
            const std::size_t optionIndex = selection.optionPerTask[i];
            obs::Event event;
            event.kind = obs::EventKind::TaskService;
            event.id = selection.decisionSeq;
            event.value = static_cast<std::int64_t>(taskId);
            event.extra = static_cast<std::int64_t>(optionIndex);
            event.a = serviceEstimator->estimate(task.option(optionIndex),
                                                 power);
            event.b = system.executionProbability(taskId);
            observer->record(event);
        }
    }
    return selection;
}

void
Controller::onInputDropped(const TaskSystem &system,
                           const queueing::InputBuffer &buffer,
                           const queueing::InputRecord &dropped, Tick now)
{
    schedPolicy->onBufferOverflow(system, buffer, dropped, now);
}

void
Controller::onTaskComplete(const TaskSystem &system, TaskId task,
                           std::size_t optionIndex, double observedSeconds)
{
    const DegradationOption &option =
        system.task(task).option(optionIndex);
    serviceEstimator->recordObservation(option, observedSeconds);
}

void
Controller::onJobComplete(TaskSystem &system, const JobSelection &selection,
                          const ExecutedVec &executedPerTask,
                          double observedSeconds)
{
    ++runStats.jobsCompleted;
    const Job &job = system.job(selection.jobId);
    system.recordJobCompletion(job, executedPerTask);

    if (selection.predictedServiceSeconds > 0.0) {
        // Section 4.3: error = observed - predicted. Positive error
        // means the job ran longer than modeled, so future E[S]
        // predictions are inflated (degrade sooner).
        const double error =
            observedSeconds - selection.predictedServiceSeconds;
        runStats.predictionError.add(error);
        if (pid) {
            const double dt = std::max(observedSeconds, 1e-3);
            pid->update(error, dt);
        }
        if (observer != nullptr &&
            observer->wants(obs::EventKind::PidUpdate)) {
            obs::Event event;
            event.kind = obs::EventKind::PidUpdate;
            event.id = selection.decisionSeq;
            event.a = error;
            event.b = pidCorrection();
            observer->record(event);
        }
    }
}

double
Controller::pidCorrection() const
{
    return pid ? pid->output() : 0.0;
}

void
Controller::checkpoint(const TaskSystem &system, util::wire::Archive &ar)
{
    std::uint64_t counter = decisionCounter;
    ControllerStats counts = runStats;
    ar.varint(counter);
    ar.varint(counts.iboPredictions);
    ar.varint(counts.degradedJobs);
    ar.varint(counts.jobsCompleted);
    util::RunningStats::State error = runStats.predictionError.exportState();
    error.walk(ar);
    // PID presence is configuration; the snapshot must match it.
    bool hasPid = pid.has_value();
    ar.flag(hasPid);
    ar.check(hasPid == pid.has_value());
    PidController::State loop = pid ? pid->exportState()
                                    : PidController::State{};
    if (pid)
        loop.walk(ar);
    // Length-prefixed sub-blobs: a hook that reads short or long is
    // caught here rather than corrupting the following section.
    ar.nested([this](util::wire::Archive &sub) {
        serviceEstimator->state(sub);
    });
    ar.nested([this, &system](util::wire::Archive &sub) {
        schedPolicy->state(system, sub);
    });
    if (!ar.loaded())
        return;

    decisionCounter = counter;
    runStats = counts;
    runStats.predictionError.importState(error);
    if (pid)
        pid->importState(loop);
}

} // namespace core
} // namespace quetzal
