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

#include <array>
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
 * One scheduling round's E[S] terms (Alg. 1 lines 5-8). A task's term
 * at an option is P(task) x estimate(option, P_in); each task's
 * full-quality term is derived at most once per round and shared by
 * every reader of the round: the ranking, the selected job's E[S],
 * the IBO backlog walk and the other admit rules. Each PolicyContext
 * owns a fresh table, so nothing a completion or an estimator
 * observation changes between two rounds is ever served stale.
 * Every E[S] is summed from 0.0 in job.tasks order from the same
 * products as a direct walk of Σ p·estimate, so it is the same double.
 */
class ServiceTerms
{
  public:
    ServiceTerms(const TaskSystem &system,
                 const ServiceTimeEstimator &estimator,
                 const PowerReading &power)
        : system(system), estimator(estimator), power(power)
    {
    }

    /** P(task) x estimate(option, P_in). */
    double
    term(TaskId task, std::size_t option = 0) const
    {
        const std::uint32_t bit = std::uint32_t{1} << task;
        if (option == 0 && (known & bit) != 0)
            return fullTerm[task];
        const double value = system.executionProbability(task) *
            estimator.estimate(system.task(task).option(option), power);
        if (option == 0) {
            fullTerm[task] = value;
            known |= bit;
        }
        return value;
    }

    /**
     * Expected service seconds of a whole job (Alg. 1 line 7).
     * @param optionPerTask option index per position in job.tasks;
     *        pass {} for all-highest-quality
     */
    double jobService(const Job &job,
                      const OptionVec &optionPerTask = {}) const;

  private:
    static_assert(kMaxTasks <= 32, "one known bit per task");

    const TaskSystem &system;
    const ServiceTimeEstimator &estimator;
    const PowerReading &power;
    /** Read only where `known` has the task's bit; left uninitialized
     *  because zeroing it cost every round a `rep stos`. */
    mutable std::array<double, kMaxTasks> fullTerm;
    mutable std::uint32_t known = 0; ///< bit t: fullTerm[t] derived
};

/**
 * Everything a policy may observe when making a decision, plus the
 * round's E[S] table. References are valid only for the duration of
 * the call.
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
    /** This round's E[S] terms (every estimate a policy reads). */
    ServiceTerms terms{system, estimator, power};
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
     * ServiceTimeEstimator::state); a load fails, under a named
     * section, on state that does not fit `system`'s tasks. Stateless
     * policies keep the empty default.
     */
    virtual void state(const TaskSystem &, util::wire::Archive &) {}
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
