#include "policy/rules.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace quetzal {
namespace policy {

namespace {

/**
 * Pick the schedulable input that arrived first/last. The buffer
 * stores captures in order, so this is capture order; a re-inserted
 * (spawned) input keeps its arrival position. O(job classes).
 */
std::optional<core::SchedulerDecision>
rankByOrder(const core::PolicyContext &ctx, bool newestFirst)
{
    const auto slot = newestFirst ? ctx.buffer.newestSchedulable()
                                  : ctx.buffer.oldestSchedulable();
    if (!slot)
        return std::nullopt;

    const auto &chosen = ctx.buffer.record(*slot);
    core::SchedulerDecision decision;
    decision.jobId = chosen.jobId;
    decision.slot = *slot;
    // Order-based rules do not *use* E[S], but reporting it keeps the
    // prediction-error feedback meaningful for the IBO engine
    // variants of Figure 12.
    decision.expectedServiceSeconds = std::max(
        0.0, ctx.terms.jobService(ctx.system.job(chosen.jobId)) +
                 ctx.pidCorrection);
    return decision;
}

/**
 * Build a decision with every task at a uniform quality extreme.
 * @param degrade true selects each task's lowest-quality option
 */
core::AdaptationDecision
uniformDecision(const core::PolicyContext &ctx, const core::Job &job,
                bool degrade)
{
    core::AdaptationDecision decision;
    decision.optionPerTask.resize(job.tasks.size());
    bool anyDegraded = false;
    for (std::size_t i = 0; i < job.tasks.size(); ++i) {
        const core::Task &task = ctx.system.task(job.tasks[i]);
        const std::size_t opt = degrade ? task.optionCount() - 1 : 0;
        decision.optionPerTask[i] = opt;
        anyDegraded = anyDegraded || opt > 0;
    }
    decision.degraded = anyDegraded;
    decision.predictedServiceSeconds =
        ctx.terms.jobService(job, decision.optionPerTask) +
        ctx.pidCorrection;
    return decision;
}

} // namespace

RulePolicy::RulePolicy(RankRule rank, AdmitRule admit)
    : rankRule(rank), admitRule(admit)
{
    const double threshold = admitRule.threshold;
    if (admitRule.kind == AdmitRule::Kind::BufferThreshold &&
        (threshold <= 0.0 || threshold > 1.0))
        util::fatal(util::msg("buffer threshold must be in (0,1]: ",
                              threshold));
    if (admitRule.kind == AdmitRule::Kind::PowerThreshold &&
        threshold < 0.0)
        util::fatal("power threshold must be non-negative");
}

std::string
RulePolicy::name() const
{
    std::string rank;
    switch (rankRule) {
      case RankRule::EnergyAwareSjf: rank = "sjf"; break;
      case RankRule::Oldest: rank = "fcfs"; break;
      case RankRule::Newest: rank = "lcfs"; break;
    }
    switch (admitRule.kind) {
      case AdmitRule::Kind::Ibo: return rank + "-ibo";
      case AdmitRule::Kind::FullQuality: return rank + "-full";
      case AdmitRule::Kind::LowestQuality: return rank + "-lowest";
      case AdmitRule::Kind::BufferThreshold:
        return util::msg(rank, "-buffer-",
                         static_cast<int>(admitRule.threshold * 100.0),
                         "%");
      case AdmitRule::Kind::PowerThreshold:
        return rank + "-power-threshold";
    }
    util::panic("unknown admit rule");
}

std::optional<core::SchedulerDecision>
RulePolicy::rank(const core::PolicyContext &ctx)
{
    switch (rankRule) {
      case RankRule::EnergyAwareSjf: return core::rankEnergyAwareSjf(ctx);
      case RankRule::Oldest: return rankByOrder(ctx, false);
      case RankRule::Newest: return rankByOrder(ctx, true);
    }
    util::panic("unknown rank rule");
}

core::AdaptationDecision
RulePolicy::admit(const core::PolicyContext &ctx, const core::Job &job)
{
    switch (admitRule.kind) {
      case AdmitRule::Kind::Ibo:
        return ibo.admit(ctx, job);
      case AdmitRule::Kind::FullQuality:
        return uniformDecision(ctx, job, false);
      case AdmitRule::Kind::LowestQuality:
        return uniformDecision(ctx, job, true);
      case AdmitRule::Kind::BufferThreshold:
        return uniformDecision(
            ctx, job,
            ctx.buffer.occupancyFraction() >= admitRule.threshold);
      case AdmitRule::Kind::PowerThreshold:
        return uniformDecision(ctx, job,
                               ctx.power.watts < admitRule.threshold);
    }
    util::panic("unknown admit rule");
}

void
RulePolicy::state(const core::TaskSystem &system, util::wire::Archive &ar)
{
    if (admitRule.kind == AdmitRule::Kind::Ibo)
        ibo.state(system, ar);
}

} // namespace policy
} // namespace quetzal
