/**
 * @file
 * Quetzal's IBO-detection and reaction engine (paper Algorithm 2):
 * the admission half of the paper's policy.
 *
 * After Energy-aware SJF ranks a job first, the engine decides at
 * what quality to run the job's degradable task. It predicts the
 * buffer occupancy at job completion with Little's Law; if an
 * overflow is imminent it walks the quality-ordered option list and
 * selects the *highest-quality* option that avoids the predicted
 * overflow, falling back to the option with the lowest S_e2e when
 * none does. The baselines' admission rules (full quality, lowest
 * quality, buffer/power thresholds) live in policy/rules.hpp.
 */

#ifndef QUETZAL_CORE_IBO_ENGINE_HPP
#define QUETZAL_CORE_IBO_ENGINE_HPP

#include <string>
#include <vector>

#include "core/scheduler.hpp"

namespace quetzal {
namespace core {

/**
 * The paper's IBO-detection and reaction engine (Algorithm 2).
 *
 * Little's Law is evaluated over the *backlog-drain horizon*: the
 * expected arrivals while the device works through everything
 * currently buffered (each input's service estimated at its tasks'
 * current quality settings). With sub-second jobs, the horizon of a
 * single job cannot anticipate an overflow that builds across the
 * next several arrivals; the drain horizon can, which is what lets
 * the engine degrade early enough — and only as much as required —
 * to avoid the overflow (section 4.2). The engine keeps per-task
 * quality state so one job's decision prices the other jobs'
 * buffered work realistically; every evaluation starts back at full
 * quality, so recovery is automatic.
 */
class IboReactionEngine
{
  public:
    /** Decide the degradation options for the ranked job. */
    AdaptationDecision admit(const PolicyContext &ctx, const Job &job);

    /** Walks the per-task current-option settings (the policy hook
     *  of the rules that use the engine); a load refuses more
     *  settings than `system` has tasks, or an option index at or
     *  above its task's option count. */
    void state(const TaskSystem &system, util::wire::Archive &ar);

  private:
    /** Last option the engine chose per task (lazily sized). */
    std::vector<std::size_t> currentOption;
};

} // namespace core
} // namespace quetzal

#endif // QUETZAL_CORE_IBO_ENGINE_HPP
