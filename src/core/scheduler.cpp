#include "core/scheduler.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace quetzal {
namespace core {

double
ServiceTerms::jobService(const Job &job, const OptionVec &optionPerTask) const
{
    if (!optionPerTask.empty() && optionPerTask.size() != job.tasks.size())
        util::panic("option choices do not match job task count");
    double expected = 0.0;
    for (std::size_t i = 0; i < job.tasks.size(); ++i)
        expected += term(job.tasks[i],
                         optionPerTask.empty() ? 0 : optionPerTask[i]);
    return expected;
}

std::optional<SchedulerDecision>
rankEnergyAwareSjf(const PolicyContext &ctx)
{
    std::optional<SchedulerDecision> best;
    Tick bestCaptureTick = kTickNever;

    for (const Job &job : ctx.system.jobs()) {
        const auto slot = ctx.buffer.oldestSlotForJob(job.id);
        if (!slot)
            continue;

        // Alg. 1 lines 5-8: E[S] = sum of per-task S_e2e weighted by
        // execution probability, at the highest-quality options (the
        // IBO engine degrades afterwards if needed). A deflating PID
        // correction cannot push a prediction below zero.
        const double expected =
            std::max(0.0, ctx.terms.jobService(job) + ctx.pidCorrection);

        const Tick captureTick = ctx.buffer.record(*slot).captureTick;
        const bool better = !best ||
            expected < best->expectedServiceSeconds ||
            (expected == best->expectedServiceSeconds &&
             captureTick < bestCaptureTick);
        if (better) {
            best = SchedulerDecision{job.id, *slot, expected};
            bestCaptureTick = captureTick;
        }
    }
    return best;
}

} // namespace core
} // namespace quetzal
