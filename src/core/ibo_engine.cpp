#include "core/ibo_engine.hpp"

#include <algorithm>
#include <array>

#include "queueing/littles_law.hpp"
#include "util/wire.hpp"

namespace quetzal {
namespace core {

namespace {

/**
 * Expected seconds to serve every buffered input, given each task's
 * term at the quality under evaluation: one addition per buffered
 * task, in FIFO and job.tasks order.
 */
double
backlogServiceSeconds(const TaskSystem &system,
                      const queueing::InputBuffer &buffer,
                      const std::array<double, kMaxTasks> &taskTerm)
{
    double total = 0.0;
    buffer.forEachFifo([&](queueing::SlotId,
                           const queueing::InputRecord &rec) {
        for (TaskId taskId : system.job(rec.jobId).tasks)
            total += taskTerm[taskId];
    });
    return total;
}

} // namespace

AdaptationDecision
IboReactionEngine::admit(const PolicyContext &ctx, const Job &job)
{
    const TaskSystem &system = ctx.system;
    const queueing::InputBuffer &buffer = ctx.buffer;
    const double pidCorrection = ctx.pidCorrection;
    if (currentOption.size() < system.taskCount())
        currentOption.resize(system.taskCount(), 0);

    AdaptationDecision decision;
    decision.optionPerTask.assign(job.tasks.size(), 0);

    const double lambda = system.arrivalsPerSecond();
    const std::size_t capacity = buffer.capacity();
    const std::size_t occupancy = buffer.size();

    // Selected-job E[S] at full quality: the PID reference and the
    // value reported when no degradation is needed.
    const double selectedFull =
        std::max(0.0, ctx.terms.jobService(job) + pidCorrection);
    decision.predictedServiceSeconds = selectedFull;

    if (!job.degradableIndex) {
        // Detection only (Alg. 2 lines 1-7) over the selected job.
        decision.iboPredicted = queueing::iboPredicted(
            lambda, selectedFull, capacity, occupancy);
        decision.overflowAvoided = !decision.iboPredicted;
        return decision;
    }

    const std::size_t degIdx = *job.degradableIndex;
    const TaskId degTaskId = job.tasks[degIdx];
    const Task &degTask = system.task(degTaskId);

    // The other tasks' terms at their current quality, derived once;
    // the walk below fills in the degradable task's per option. Every
    // entry below taskCount() is written before the walk reads it.
    std::array<double, kMaxTasks> taskTerm;
    for (TaskId taskId = 0; taskId < system.taskCount(); ++taskId) {
        if (taskId != degTaskId)
            taskTerm[taskId] = ctx.terms.term(taskId, currentOption[taskId]);
    }

    // Detection and reaction (Alg. 2): predict the buffered inputs at
    // the horizon of the scheduled work with Little's Law, walking
    // the quality-ordered options of the selected job's degradable
    // task. The horizon is the time to drain the current backlog —
    // every buffered input's expected service at the tasks' current
    // quality settings — because with sub-second jobs a single job's
    // E[S] cannot anticipate an overflow that builds over the next
    // several arrivals (see DESIGN.md section 4).
    std::size_t chosen = 0;
    bool avoided = false;
    std::size_t fastest = 0;
    double fastestBacklog = 0.0;

    for (std::size_t opt = 0; opt < degTask.optionCount(); ++opt) {
        taskTerm[degTaskId] = ctx.terms.term(degTaskId, opt);
        const double backlog = std::max(
            0.0, backlogServiceSeconds(system, buffer, taskTerm) +
                     pidCorrection);
        // Arrivals during the drain also demand service: the busy
        // period of an M/G/1 queue starting from this backlog is
        // backlog / (1 - rho).
        const double meanService = occupancy > 0 ?
            backlog / static_cast<double>(occupancy) : 0.0;
        const double rho = lambda * meanService;
        // Fallback ranking must stay discriminating even when every
        // option is unstable, so rank by raw backlog service
        // (monotone in the option's S_e2e).
        if (opt == 0 || backlog < fastestBacklog) {
            fastest = opt;
            fastestBacklog = backlog;
        }
        bool overflow;
        if (rho < 1.0) {
            const double horizon = backlog / (1.0 - rho);
            overflow = queueing::iboPredicted(lambda, horizon, capacity,
                                              occupancy);
        } else {
            // The configuration cannot keep up with the current
            // arrival rate: the queue only grows, so an overflow is
            // predicted outright.
            overflow = true;
        }
        if (opt == 0)
            decision.iboPredicted = overflow;
        if (!overflow) {
            chosen = opt;
            avoided = true;
            break;
        }
    }

    if (!avoided) {
        // No option avoids the predicted overflow: use the option
        // with the lowest S_e2e to minimize E[N] (section 4.2).
        chosen = fastest;
    }

    currentOption[degTaskId] = chosen;
    decision.optionPerTask[degIdx] = chosen;
    decision.degraded = chosen > 0;
    decision.overflowAvoided = avoided;
    if (decision.iboPredicted) {
        // Report the selected job's E[S] at the chosen quality so the
        // PID compares like with like.
        decision.predictedServiceSeconds = std::max(
            0.0, ctx.terms.jobService(job, decision.optionPerTask) +
                     pidCorrection);
    }
    return decision;
}

void
IboReactionEngine::state(const TaskSystem &system,
                         util::wire::Archive &ar)
{
    std::vector<std::size_t> options = currentOption;
    ar.section("IBO option count exceeds task count");
    options.resize(ar.count(options.size()));
    ar.check(options.size() <= system.taskCount());
    ar.section("IBO option index out of range");
    for (TaskId task = 0; task < options.size(); ++task) {
        ar.varint(options[task]);
        ar.check(task < system.taskCount() &&
                 options[task] < system.task(task).optionCount());
    }
    if (ar.loaded())
        currentOption = std::move(options);
}

} // namespace core
} // namespace quetzal
