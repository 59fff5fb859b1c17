/**
 * @file
 * The controller table: every runnable controller configuration —
 * the paper's evaluated systems (ControllerKind) and the registered
 * policies of the zoo — as one row each.
 *
 * A row names the display label, how to build the policy, which
 * service-time estimator the controller runs, whether it honours the
 * section 4.3 PID loop, and whether the simulator charges the modeled
 * Alg. 1 + Alg. 2 invocation cost; a zoo row also names the
 * directive rule the fleet coordinator runs for a cohort under it.
 * sim::runExperiment, the CLI (`quetzal-sim --controller` /
 * `--policy`), the scenario `controller` / `policy` fields and the
 * fleet coordinator all resolve here; the invariant test harness
 * walks every row.
 */

#ifndef QUETZAL_POLICY_REGISTRY_HPP
#define QUETZAL_POLICY_REGISTRY_HPP

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/pid.hpp"
#include "core/runtime.hpp"
#include "energy/power_trace.hpp"

namespace quetzal {
namespace policy {

/** Every system configuration the paper evaluates. */
enum class ControllerKind {
    Quetzal,        ///< EA-SJF + IBO engine + PID (the paper's system)
    QuetzalFcfs,    ///< Fig. 12: FCFS + IBO engine
    QuetzalLcfs,    ///< Fig. 12: LCFS + IBO engine
    QuetzalAvgSe2e, ///< Fig. 12: power-blind Avg. S_e2e estimator
    NoAdapt,        ///< NA
    AlwaysDegrade,  ///< AD
    CatNap,         ///< CN: degrade at 100 % occupancy [62]
    BufferThreshold,///< Fig. 11: degrade at a fixed occupancy
    Zgo,            ///< Zygarde/Protean, datasheet-max threshold [44, 7]
    Zgi,            ///< idealized (oracle observed-max) variant
    Ideal,          ///< infinite buffer, never degrades
};

/** The registered name of the paper's policy (EA-SJF + IBO engine):
 *  the Quetzal row's policy under its zoo name. */
inline constexpr char kPaperPolicy[] = "sjf-ibo";

/** Knobs and run facts a row reads when building its controller. */
struct PolicyOptions
{
    bool useCircuit = true; ///< Alg. 3 codes vs exact float power
    bool usePid = true;     ///< section 4.3 error mitigation
    core::PidConfig pidConfig;
    /** Occupancy fraction of the BufferThreshold row. */
    double bufferThreshold = 0.5;
    /** ZGO/ZGI threshold as a fraction of their reference maximum. */
    double powerThresholdFraction = 0.35;
    /** ZGO's reference: the harvester's datasheet maximum. */
    Watts datasheetMaxPower = 0.0;
    /** ZGI's reference: this trace's observed maximum (none = 0). */
    const energy::PowerTrace *powerTrace = nullptr;
};

/** How a row builds its service-time estimator. */
enum class EstimatorRule {
    EnergyAware, ///< Eq. 1 through the circuit when useCircuit is set
    ExactFloat,  ///< Eq. 1 in exact floating point, always
    Average,     ///< power-blind historical averages (Avg. S_e2e)
};

/** The fleet coordinator's per-cohort directive rule (DESIGN.md
 *  section 15): how a cohort's slab aggregates become the next
 *  slab's directive. */
enum class FleetRule {
    OverflowPrevention, ///< escalate on drops, relax when quiet
    DeadlineDrain,      ///< lowest level that clears the backlog
    EnergyHorizon,      ///< shed work when the mean charge runs low
    FullQuality,        ///< never degrade
};

/** One runnable controller configuration. */
struct ControllerRow
{
    /** Display label ("QZ", "NA", ...) or the zoo policy's name. */
    const char *label;
    /** A zoo row: `label` is a --policy name. */
    bool registered;
    std::unique_ptr<core::SchedulingPolicy> (*makePolicy)(
        const PolicyOptions &options);
    EstimatorRule estimator;
    /** False: the row never runs the PID loop, whatever usePid says. */
    bool honoursPid;
    /** Charge the modeled Alg. 1 + Alg. 2 invocation cost. */
    bool chargesOverhead;
    /** Directive rule of a fleet cohort under this policy (read for
     *  zoo rows; the ControllerKind rows omit it). */
    FleetRule fleetRule = FleetRule::OverflowPrevention;
};

/**
 * Every row: the ControllerKind rows in enum order, then the zoo.
 * Only tests call it: they check controllerRow(), policyRow(),
 * controllerKindFromLabel() and registeredPolicyNames() against the
 * whole table, and walk every row's policy.
 */
std::span<const ControllerRow> controllerRows();

/** The row of a paper configuration. */
const ControllerRow &controllerRow(ControllerKind kind);

/** The ControllerKind whose display label is `label` ("QZ", ...). */
std::optional<ControllerKind>
controllerKindFromLabel(const std::string &label);

/** Registered zoo policy names, in registration (display) order. */
const std::vector<std::string> &registeredPolicyNames();

/** True when policyRow(name) would succeed. */
bool isRegisteredPolicy(const std::string &name);

/** The row of a registered policy; fatal on unknown names. */
const ControllerRow &policyRow(const std::string &name);

/** Fresh instance of a registered policy; fatal on unknown names. */
std::unique_ptr<core::SchedulingPolicy>
makePolicy(const std::string &name);

/** A core::Controller configured as the row says. */
std::unique_ptr<core::Controller>
makeController(const ControllerRow &row, const PolicyOptions &options = {});

/** makeController(controllerRow(kind), options). */
std::unique_ptr<core::Controller>
makeController(ControllerKind kind, const PolicyOptions &options = {});

} // namespace policy
} // namespace quetzal

#endif // QUETZAL_POLICY_REGISTRY_HPP
