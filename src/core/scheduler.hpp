/**
 * @file
 * The scheduling-policy interface and Energy-aware SJF ranking
 * (paper Algorithm 1).
 *
 * A SchedulingPolicy makes the whole per-round decision of Figure 5:
 * rank() picks which buffered input runs next, admit() picks the
 * quality each of that job's tasks runs at, and onBufferOverflow()
 * reacts to a dropped capture. The Controller (runtime.hpp) holds
 * exactly one policy. The paper's Quetzal is Alg. 1 ranking + Alg. 2
 * admission (ibo_engine.hpp); its baselines and the related-work
 * policies are other implementations (src/policy).
 *
 * Energy-aware SJF selects the job with the smallest expected
 * *end-to-end* service time at the measured input power — including
 * energy-recharge time — which minimizes mean wait across buffered
 * inputs and so relieves buffer pressure. Ties break toward the job
 * holding the older input (section 4.1).
 */

#ifndef QUETZAL_CORE_SCHEDULER_HPP
#define QUETZAL_CORE_SCHEDULER_HPP

#include <optional>
#include <string>

#include "core/system.hpp"
#include "queueing/input_buffer.hpp"

namespace quetzal::util::wire {
class Archive;
}

namespace quetzal {
namespace core {

/**
 * Device-state snapshot taken at the start of a scheduling round.
 * Policies that reason about stored energy (Delgado & Famaey-style
 * lookahead) or wall-clock deadlines (Zygarde-style EDF) read it;
 * the paper's policies ignore it.
 */
struct RuntimeObservation
{
    Joules storedEnergy = 0.0;    ///< energy currently in storage
    Joules storageCapacity = 0.0; ///< storage capacity (0 = unknown)
    Tick now = 0;                 ///< simulation time of the round
};

/** A policy's choice of what to run next. */
struct SchedulerDecision
{
    JobId jobId = 0;              ///< job class to execute
    queueing::SlotId slot = 0;    ///< buffer slot of the input it consumes
    /**
     * The policy's E[S] estimate for the chosen job (0 for policies
     * that do not estimate service times).
     */
    double expectedServiceSeconds = 0.0;
    /**
     * Energy the policy claims the chosen job needs (0 when the
     * policy states no bound). A nonzero bound must never exceed the
     * stored energy it observed — the invariant harness enforces it.
     */
    double energyBoundJoules = 0.0;
};

/** A policy's quality decision for one job execution. */
struct AdaptationDecision
{
    /** Option index per position in job.tasks (0 == full quality). */
    OptionVec optionPerTask;
    /** E[S] of the job as configured (0 if the policy has no model). */
    double predictedServiceSeconds = 0.0;
    /** True when Little's Law predicted an overflow before reaction. */
    bool iboPredicted = false;
    /** True when any task was degraded below full quality. */
    bool degraded = false;
    /**
     * True when the chosen configuration is predicted to avoid the
     * overflow (always true when none was predicted).
     */
    bool overflowAvoided = true;
};

/**
 * Everything a policy may observe when making a decision. References
 * are valid only for the duration of the call.
 */
struct PolicyContext
{
    const TaskSystem &system;
    const queueing::InputBuffer &buffer;
    const ServiceTimeEstimator &estimator;
    const PowerReading &power;
    /** PID correction in seconds (0 when the loop is disabled). */
    double pidCorrection = 0.0;
    /** Device-state snapshot (stored energy, capacity, tick). */
    RuntimeObservation runtime;
};

/**
 * A complete scheduling policy: ranking + admission + IBO reaction.
 *
 * Decisions must be a pure function of the observable state (the
 * context plus any internal state that itself evolved only from
 * prior contexts/overflow notifications) — the invariant harness in
 * tests/support/verify.hpp enforces this by replaying identical walks.
 */
class SchedulingPolicy
{
  public:
    virtual ~SchedulingPolicy() = default;

    /** Policy name ("sjf-ibo", "zygarde", "fcfs-full", ...). */
    virtual std::string name() const = 0;

    /**
     * Rank the buffered candidates and pick what runs next, or
     * nullopt when nothing is schedulable. A nonzero
     * energyBoundJoules in the decision must not exceed
     * ctx.runtime.storedEnergy.
     */
    virtual std::optional<SchedulerDecision>
    rank(const PolicyContext &ctx) = 0;

    /**
     * Admission/degradation decision for the job rank() chose: at
     * what quality each of its tasks runs.
     */
    virtual AdaptationDecision admit(const PolicyContext &ctx,
                                     const Job &job) = 0;

    /** IBO reaction hook: a capture was dropped. Default: ignore. */
    virtual void onBufferOverflow(const TaskSystem &,
                                  const queueing::InputBuffer &,
                                  const queueing::InputRecord &, Tick)
    {
    }

    /**
     * Checkpoint hook: walk the policy's mutable state (see
     * ServiceTimeEstimator::state). Stateless policies keep the
     * empty default.
     */
    virtual void state(util::wire::Archive &ar) { (void)ar; }
};

/**
 * The paper's Energy-aware SJF ranking (Algorithm 1): the job with
 * the smallest PID-corrected E[S], ties toward the older input.
 */
std::optional<SchedulerDecision>
rankEnergyAwareSjf(const PolicyContext &ctx);

} // namespace core
} // namespace quetzal

#endif // QUETZAL_CORE_SCHEDULER_HPP
