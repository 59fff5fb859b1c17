#include "policy/zoo.hpp"

#include <algorithm>
#include <limits>

#include "util/wire.hpp"

namespace quetzal {
namespace policy {

namespace {

/** The staleness bound shared with Metrics::deadlineMisses: the time
 *  the buffer takes to cycle once at the nominal capture rate. */
double
deadlineSeconds(const core::PolicyContext &ctx)
{
    const double hz = ctx.system.config().captureHz;
    return static_cast<double>(ctx.buffer.capacity()) /
           (hz > 0.0 ? hz : 1.0);
}

/**
 * E[S] of a job (with options) plus the PID correction, unclamped.
 * Comparisons between options must use this form: once the correction
 * saturates negative, the clamped services of every option collapse
 * to 0 and become indistinguishable.
 */
double
rawService(const core::PolicyContext &ctx, const core::Job &job,
           const core::OptionVec &options = {})
{
    return ctx.terms.jobService(job, options) + ctx.pidCorrection;
}

/** rawService() clamped for reporting as a predicted service time. */
double
predictedService(const core::PolicyContext &ctx, const core::Job &job,
                 const core::OptionVec &options = {})
{
    return std::max(0.0, rawService(ctx, job, options));
}

/**
 * Execution-probability-weighted energy of one job run, with the
 * degradable task (if any) at the given option index.
 */
Joules
jobEnergy(const core::TaskSystem &system, const core::Job &job,
          std::size_t degOption)
{
    Joules total = 0.0;
    for (std::size_t i = 0; i < job.tasks.size(); ++i) {
        const core::TaskId taskId = job.tasks[i];
        const core::Task &task = system.task(taskId);
        const std::size_t optionIndex =
            (job.degradableIndex && *job.degradableIndex == i) ? degOption
                                                               : 0;
        total += system.executionProbability(taskId) *
                 task.option(optionIndex).energy();
    }
    return total;
}

/** Cheapest-config energy of a job and the option that achieves it. */
std::pair<Joules, std::size_t>
minimalJobEnergy(const core::TaskSystem &system, const core::Job &job)
{
    std::size_t bestOption = 0;
    Joules best = jobEnergy(system, job, 0);
    if (job.degradableIndex) {
        const core::Task &deg =
            system.task(job.tasks[*job.degradableIndex]);
        for (std::size_t o = 1; o < deg.optionCount(); ++o) {
            const Joules e = jobEnergy(system, job, o);
            if (e < best) {
                best = e;
                bestOption = o;
            }
        }
    }
    return {best, bestOption};
}

} // namespace

std::optional<core::SchedulerDecision>
ZygardePolicy::rank(const core::PolicyContext &ctx)
{
    // Earliest deadline first == oldest capture first: every input
    // carries the same relative deadline, so urgency is input age.
    std::optional<core::SchedulerDecision> best;
    Tick bestCaptureTick = 0;
    for (const core::Job &job : ctx.system.jobs()) {
        const auto slot = ctx.buffer.oldestSlotForJob(job.id);
        if (!slot)
            continue;
        const Tick captureTick = ctx.buffer.record(*slot).captureTick;
        if (best && captureTick >= bestCaptureTick)
            continue;
        core::SchedulerDecision decision;
        decision.jobId = job.id;
        decision.slot = *slot;
        decision.expectedServiceSeconds = predictedService(ctx, job);
        best = decision;
        bestCaptureTick = captureTick;
    }
    return best;
}

core::AdaptationDecision
ZygardePolicy::admit(const core::PolicyContext &ctx, const core::Job &job)
{
    double age = 0.0;
    if (const auto slot = ctx.buffer.oldestSlotForJob(job.id)) {
        age = ticksToSeconds(ctx.runtime.now -
                             ctx.buffer.record(*slot).captureTick);
    }
    const double slack = deadlineSeconds(ctx) - age - overflowPressure;
    overflowPressure *= 0.5;

    core::AdaptationDecision decision;
    decision.optionPerTask.assign(job.tasks.size(), 0);
    const double fullRaw = rawService(ctx, job);
    decision.predictedServiceSeconds = std::max(0.0, fullRaw);
    decision.iboPredicted = fullRaw > slack;
    decision.overflowAvoided = !decision.iboPredicted;
    if (!decision.iboPredicted || !job.degradableIndex)
        return decision;

    // Highest quality first: the first option whose predicted service
    // fits the remaining slack wins; when none fits, run the option
    // with the smallest prediction (accuracy yields to the deadline).
    const std::size_t degIndex = *job.degradableIndex;
    const core::Task &deg = ctx.system.task(job.tasks[degIndex]);
    std::size_t fallback = 0;
    double fallbackRaw = fullRaw;
    for (std::size_t o = 1; o < deg.optionCount(); ++o) {
        decision.optionPerTask[degIndex] = o;
        const double raw =
            rawService(ctx, job, decision.optionPerTask);
        if (raw <= slack) {
            decision.predictedServiceSeconds = std::max(0.0, raw);
            decision.degraded = true;
            decision.overflowAvoided = true;
            return decision;
        }
        if (raw < fallbackRaw) {
            fallback = o;
            fallbackRaw = raw;
        }
    }
    decision.optionPerTask[degIndex] = fallback;
    decision.predictedServiceSeconds = std::max(0.0, fallbackRaw);
    decision.degraded = fallback != 0;
    return decision;
}

void
ZygardePolicy::onBufferOverflow(const core::TaskSystem &system,
                                const queueing::InputBuffer &,
                                const queueing::InputRecord &, Tick)
{
    const double hz = system.config().captureHz;
    overflowPressure += 1.0 / (hz > 0.0 ? hz : 1.0);
}

void
ZygardePolicy::state(const core::TaskSystem &, util::wire::Archive &ar)
{
    double pressure = overflowPressure;
    ar.real(pressure);
    if (ar.loaded())
        overflowPressure = pressure;
}

std::optional<core::SchedulerDecision>
EnergyLookaheadPolicy::rank(const core::PolicyContext &ctx)
{
    // No runtime snapshot (storage unknown) means no energy
    // constraint: the policy degenerates to cheapest-job-first.
    const bool haveRuntime = ctx.runtime.storedEnergy > 0.0 ||
                             ctx.runtime.storageCapacity > 0.0;

    std::optional<core::SchedulerDecision> best;
    bool bestFits = false;
    Joules bestEnergy = 0.0;
    Tick bestCaptureTick = 0;
    for (const core::Job &job : ctx.system.jobs()) {
        const auto slot = ctx.buffer.oldestSlotForJob(job.id);
        if (!slot)
            continue;
        const double expected = predictedService(ctx, job);
        // Lookahead budget: what is stored now plus what the current
        // harvest delivers while the job runs.
        const Joules budget = haveRuntime
            ? ctx.runtime.storedEnergy + ctx.power.watts * expected
            : std::numeric_limits<Joules>::infinity();
        const Joules eMin = minimalJobEnergy(ctx.system, job).first;
        const bool fits = eMin <= budget;
        const Tick captureTick = ctx.buffer.record(*slot).captureTick;
        const bool better = !best || (fits && !bestFits) ||
            (fits == bestFits &&
             (eMin < bestEnergy ||
              (eMin == bestEnergy && captureTick < bestCaptureTick)));
        if (!better)
            continue;
        core::SchedulerDecision decision;
        decision.jobId = job.id;
        decision.slot = *slot;
        decision.expectedServiceSeconds = expected;
        // Declare the bound only when the stored energy alone covers
        // it — the invariant the harness checks against storedEnergy.
        if (fits && eMin <= ctx.runtime.storedEnergy)
            decision.energyBoundJoules = eMin;
        best = decision;
        bestFits = fits;
        bestEnergy = eMin;
        bestCaptureTick = captureTick;
    }
    return best;
}

core::AdaptationDecision
EnergyLookaheadPolicy::admit(const core::PolicyContext &ctx,
                             const core::Job &job)
{
    const bool haveRuntime = ctx.runtime.storedEnergy > 0.0 ||
                             ctx.runtime.storageCapacity > 0.0;

    core::AdaptationDecision decision;
    decision.optionPerTask.assign(job.tasks.size(), 0);
    if (job.degradableIndex) {
        const std::size_t degIndex = *job.degradableIndex;
        const core::Task &deg = ctx.system.task(job.tasks[degIndex]);
        const Joules budget = haveRuntime
            ? ctx.runtime.storedEnergy +
                ctx.power.watts * predictedService(ctx, job)
            : std::numeric_limits<Joules>::infinity();
        std::size_t chosen = minimalJobEnergy(ctx.system, job).second;
        for (std::size_t o = 0; o < deg.optionCount(); ++o) {
            if (jobEnergy(ctx.system, job, o) <= budget) {
                chosen = o;
                break;
            }
        }
        decision.optionPerTask[degIndex] = chosen;
        decision.degraded = chosen != 0;
    }
    decision.predictedServiceSeconds =
        predictedService(ctx, job, decision.optionPerTask);
    return decision;
}

std::optional<core::SchedulerDecision>
GreedyFcfsPolicy::rank(const core::PolicyContext &ctx)
{
    const auto slot = ctx.buffer.oldestSchedulable();
    if (!slot)
        return std::nullopt;
    core::SchedulerDecision decision;
    decision.jobId = ctx.buffer.record(*slot).jobId;
    decision.slot = *slot;
    return decision;
}

core::AdaptationDecision
GreedyFcfsPolicy::admit(const core::PolicyContext &, const core::Job &)
{
    // Full quality, no prediction, no prevention: the Controller
    // fills the all-zero option vector from the empty default. A
    // named default-initialised decision sets only its members'
    // initialisers, where `return {}` zeroes the whole object first.
    core::AdaptationDecision decision;
    return decision;
}

} // namespace policy
} // namespace quetzal
