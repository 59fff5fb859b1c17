#include "policy/registry.hpp"

#include <algorithm>

#include "policy/rules.hpp"
#include "policy/zoo.hpp"
#include "util/logging.hpp"

namespace quetzal {
namespace policy {

namespace {

using PolicyPtr = std::unique_ptr<core::SchedulingPolicy>;
using Admit = AdmitRule::Kind;
using Estimator = EstimatorRule;

PolicyPtr
rule(RankRule rank, Admit admit, double threshold = 0.0)
{
    return std::make_unique<RulePolicy>(rank, AdmitRule{admit, threshold});
}

template <RankRule Rank, Admit Kind>
PolicyPtr
fixedRule(const PolicyOptions &)
{
    return rule(Rank, Kind);
}

template <typename Policy>
PolicyPtr
zoo(const PolicyOptions &)
{
    return std::make_unique<Policy>();
}

/**
 * The table. The Quetzal variants and the zoo honour usePid and pay
 * the modeled scheduler cost; the paper's baselines predict nothing,
 * so they carry the exact-float estimator purely for bookkeeping
 * (reported E[S] in stats) and never run the PID loop.
 */
const ControllerRow kRows[] = {
    // ControllerKind rows, in enum order.
    {"QZ", false, fixedRule<RankRule::EnergyAwareSjf, Admit::Ibo>,
     Estimator::EnergyAware, true, true},
    {"QZ-FCFS", false, fixedRule<RankRule::Oldest, Admit::Ibo>,
     Estimator::EnergyAware, true, true},
    {"QZ-LCFS", false, fixedRule<RankRule::Newest, Admit::Ibo>,
     Estimator::EnergyAware, true, true},
    // Section 7.3: the Avg. S_e2e system keeps the SJF shape and the
    // IBO engine but feeds both from historical averages instead of
    // power-scaled predictions.
    {"QZ-AvgSe2e", false,
     fixedRule<RankRule::EnergyAwareSjf, Admit::Ibo>, Estimator::Average,
     true, true},
    {"NA", false, fixedRule<RankRule::Oldest, Admit::FullQuality>,
     Estimator::ExactFloat, false, false},
    {"AD", false, fixedRule<RankRule::Oldest, Admit::LowestQuality>,
     Estimator::ExactFloat, false, false},
    {"CN", false,
     [](const PolicyOptions &) {
         return rule(RankRule::Oldest, Admit::BufferThreshold, 1.0);
     },
     Estimator::ExactFloat, false, false},
    {"THR", false,
     [](const PolicyOptions &o) {
         return rule(RankRule::Oldest, Admit::BufferThreshold,
                     o.bufferThreshold);
     },
     Estimator::ExactFloat, false, false},
    // ZGO: threshold from the harvester *datasheet* maximum — real
    // traces rarely approach it (section 6.1).
    {"PZO", false,
     [](const PolicyOptions &o) {
         return rule(RankRule::Oldest, Admit::PowerThreshold,
                     o.powerThresholdFraction * o.datasheetMaxPower);
     },
     Estimator::ExactFloat, false, false},
    // ZGI: oracle variant, threshold from the maximum power actually
    // observed in this experiment's trace.
    {"PZI", false,
     [](const PolicyOptions &o) {
         const Watts observed =
             o.powerTrace ? o.powerTrace->maxValue() : 0.0;
         return rule(RankRule::Oldest, Admit::PowerThreshold,
                     o.powerThresholdFraction * observed);
     },
     Estimator::ExactFloat, false, false},
    // Ideal is NoAdapt on an infinite buffer (the simulator's side).
    {"Ideal", false, fixedRule<RankRule::Oldest, Admit::FullQuality>,
     Estimator::ExactFloat, false, false},
    // The zoo. "sjf-ibo" is the Quetzal row's policy under its name.
    {kPaperPolicy, true, fixedRule<RankRule::EnergyAwareSjf, Admit::Ibo>,
     Estimator::EnergyAware, true, true, FleetRule::OverflowPrevention},
    {"zygarde", true, zoo<ZygardePolicy>, Estimator::EnergyAware,
     true, true, FleetRule::DeadlineDrain},
    {"delgado-famaey", true, zoo<EnergyLookaheadPolicy>,
     Estimator::EnergyAware, true, true, FleetRule::EnergyHorizon},
    {"greedy-fcfs", true, zoo<GreedyFcfsPolicy>,
     Estimator::EnergyAware, true, true, FleetRule::FullQuality},
};

constexpr std::size_t kKindRows =
    static_cast<std::size_t>(ControllerKind::Ideal) + 1;

} // namespace

std::span<const ControllerRow>
controllerRows()
{
    return kRows;
}

const ControllerRow &
controllerRow(ControllerKind kind)
{
    const auto index = static_cast<std::size_t>(kind);
    if (index >= kKindRows)
        util::panic("unknown controller kind");
    return kRows[index];
}

std::optional<ControllerKind>
controllerKindFromLabel(const std::string &label)
{
    for (std::size_t i = 0; i < kKindRows; ++i) {
        if (label == kRows[i].label)
            return static_cast<ControllerKind>(i);
    }
    return std::nullopt;
}

const std::vector<std::string> &
registeredPolicyNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> zoo;
        for (const ControllerRow &row : kRows) {
            if (row.registered)
                zoo.emplace_back(row.label);
        }
        return zoo;
    }();
    return names;
}

bool
isRegisteredPolicy(const std::string &name)
{
    const auto &names = registeredPolicyNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

const ControllerRow &
policyRow(const std::string &name)
{
    for (const ControllerRow &row : kRows) {
        if (row.registered && name == row.label)
            return row;
    }
    util::fatal(util::msg("unknown policy \"", name,
                          "\" (run quetzal-sim --help for the list)"));
}

std::unique_ptr<core::SchedulingPolicy>
makePolicy(const std::string &name)
{
    return policyRow(name).makePolicy({});
}

std::unique_ptr<core::Controller>
makeController(const ControllerRow &row, const PolicyOptions &options)
{
    std::unique_ptr<core::ServiceTimeEstimator> estimator;
    switch (row.estimator) {
      case EstimatorRule::EnergyAware:
        estimator =
            std::make_unique<core::EnergyAwareEstimator>(options.useCircuit);
        break;
      case EstimatorRule::ExactFloat:
        estimator = std::make_unique<core::EnergyAwareEstimator>(false);
        break;
      case EstimatorRule::Average:
        estimator = std::make_unique<core::AverageServiceTimeEstimator>();
        break;
    }
    return std::make_unique<core::Controller>(
        row.label, row.makePolicy(options), std::move(estimator),
        row.honoursPid && options.usePid
            ? std::optional<core::PidConfig>(options.pidConfig)
            : std::nullopt);
}

std::unique_ptr<core::Controller>
makeController(ControllerKind kind, const PolicyOptions &options)
{
    return makeController(controllerRow(kind), options);
}

} // namespace policy
} // namespace quetzal
