/**
 * @file
 * RulePolicy: the paper's Quetzal and every baseline of its
 * evaluation (sections 6.1 and 7.3) as one policy, parameterised by
 * a rank rule and an admit rule.
 *
 * Rank rules:
 *  - EnergyAwareSjf: the paper's Alg. 1 (core/scheduler.hpp).
 *  - Oldest (FCFS): capture order — what the paper's NoAdapt
 *    hardware implementation does (section 6.2).
 *  - Newest (LCFS): the most recent capture first.
 *  FCFS and LCFS pick by arrival order, blind to per-job service
 *  times, so neither reduces mean wait when service times diverge
 *  under changing input power — the paper's motivation for SJF.
 *
 * Admit rules:
 *  - Ibo: the paper's Alg. 2 (core/ibo_engine.hpp).
 *  - FullQuality (NoAdapt, NA): the behaviour of most deployed
 *    energy-harvesting systems, e.g. Camaroptera [23].
 *  - LowestQuality (AlwaysDegrade, AD).
 *  - BufferThreshold f: degrade fully once occupancy reaches the
 *    fraction f. CatNap [62] is f = 100 % (degrade only when the
 *    buffer is already full); Figure 11 sweeps the range.
 *  - PowerThreshold W: degrade fully when measured input power falls
 *    below W watts, the Zygarde [44] / Protean [7] scheme (ZGO/ZGI;
 *    the registry derives W from the harvester datasheet or the
 *    observed trace maximum).
 */

#ifndef QUETZAL_POLICY_RULES_HPP
#define QUETZAL_POLICY_RULES_HPP

#include "core/ibo_engine.hpp"

namespace quetzal {
namespace policy {

/** Which buffered input a RulePolicy runs next. */
enum class RankRule {
    EnergyAwareSjf, ///< Alg. 1, named "sjf"
    Oldest,         ///< FCFS, named "fcfs"
    Newest,         ///< LCFS, named "lcfs"
};

/** At what quality a RulePolicy runs the job it ranked first. */
struct AdmitRule
{
    enum class Kind {
        Ibo,             ///< Alg. 2, named "ibo"
        FullQuality,     ///< named "full"
        LowestQuality,   ///< named "lowest"
        BufferThreshold, ///< named "buffer-<f>%"
        PowerThreshold,  ///< named "power-threshold"
    };

    Kind kind = Kind::Ibo;
    /**
     * Occupancy fraction in (0, 1] for BufferThreshold; watts (>= 0)
     * for PowerThreshold; unused otherwise.
     */
    double threshold = 0.0;
};

/** A rank rule + an admit rule behind the SchedulingPolicy interface. */
class RulePolicy : public core::SchedulingPolicy
{
  public:
    /** Fatal on a threshold outside its documented range. */
    RulePolicy(RankRule rank, AdmitRule admit);

    /** "<rank>-<admit>", e.g. "sjf-ibo" or "fcfs-buffer-50%". */
    std::string name() const override;

    std::optional<core::SchedulerDecision>
    rank(const core::PolicyContext &ctx) override;

    core::AdaptationDecision admit(const core::PolicyContext &ctx,
                                   const core::Job &job) override;

    /** The Ibo rule walks the engine's per-task options; every
     *  other rule is stateless. */
    void state(const core::TaskSystem &system,
               util::wire::Archive &ar) override;

  private:
    RankRule rankRule;
    AdmitRule admitRule;
    core::IboReactionEngine ibo;
};

} // namespace policy
} // namespace quetzal

#endif // QUETZAL_POLICY_RULES_HPP
