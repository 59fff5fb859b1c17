/**
 * @file
 * Competing policies from the related work (the policy zoo).
 *
 * - ZygardePolicy: deadline/accuracy-aware scheduling in the spirit
 *   of Zygarde (intermittently-powered DNN inference): EDF ranking
 *   over input age, with the degradable task's quality chosen as the
 *   highest one whose predicted service fits the input's remaining
 *   slack; dropped captures add overflow pressure that temporarily
 *   tightens the slack.
 * - EnergyLookaheadPolicy: energy-optimal task selection after
 *   Delgado & Famaey (batteryless IoT): ranks candidates by minimum
 *   execution energy against the stored-energy + expected-harvest
 *   budget, and declares the energy bound it scheduled under.
 * - GreedyFcfsPolicy: the strawman — oldest input first, always full
 *   quality, no overflow prevention at all. Exists so the tournament
 *   has a floor.
 */

#ifndef QUETZAL_POLICY_ZOO_HPP
#define QUETZAL_POLICY_ZOO_HPP

#include "core/scheduler.hpp"

namespace quetzal {
namespace policy {

/** Zygarde-style deadline/accuracy-aware EDF policy. */
class ZygardePolicy : public core::SchedulingPolicy
{
  public:
    std::string name() const override { return "zygarde"; }

    std::optional<core::SchedulerDecision>
    rank(const core::PolicyContext &ctx) override;

    core::AdaptationDecision
    admit(const core::PolicyContext &ctx, const core::Job &job) override;

    void onBufferOverflow(const core::TaskSystem &system,
                          const queueing::InputBuffer &buffer,
                          const queueing::InputRecord &dropped,
                          Tick now) override;

    /** Walks the overflow pressure. */
    void state(const core::TaskSystem &system,
               util::wire::Archive &ar) override;

  private:
    /**
     * Seconds of extra urgency from recent drops; grows by one
     * capture period per overflow, halves at each admission.
     */
    double overflowPressure = 0.0;
};

/** Delgado & Famaey-style energy-optimal lookahead policy. */
class EnergyLookaheadPolicy : public core::SchedulingPolicy
{
  public:
    std::string name() const override { return "delgado-famaey"; }

    std::optional<core::SchedulerDecision>
    rank(const core::PolicyContext &ctx) override;

    core::AdaptationDecision
    admit(const core::PolicyContext &ctx, const core::Job &job) override;
};

/** FCFS at full quality with no overflow prevention (strawman). */
class GreedyFcfsPolicy : public core::SchedulingPolicy
{
  public:
    std::string name() const override { return "greedy-fcfs"; }

    std::optional<core::SchedulerDecision>
    rank(const core::PolicyContext &ctx) override;

    core::AdaptationDecision
    admit(const core::PolicyContext &ctx, const core::Job &job) override;
};

} // namespace policy
} // namespace quetzal

#endif // QUETZAL_POLICY_ZOO_HPP
