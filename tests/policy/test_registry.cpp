/**
 * @file
 * Controller-table tests: every registered name resolves to a fresh
 * policy reporting that name, the incumbent controller runs the
 * paper's policy, every ControllerKind finds its row by kind and by
 * label, and unknown names die loudly instead of silently running
 * the wrong policy.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "policy/registry.hpp"

namespace quetzal {
namespace policy {
namespace {

TEST(PolicyRegistry, NamesAreUniqueAndResolvable)
{
    const std::vector<std::string> &names = registeredPolicyNames();
    ASSERT_GE(names.size(), 4u);
    const std::set<std::string> unique(names.begin(), names.end());
    EXPECT_EQ(unique.size(), names.size());
    for (const std::string &name : names) {
        SCOPED_TRACE(name);
        EXPECT_TRUE(isRegisteredPolicy(name));
        const auto policy = makePolicy(name);
        ASSERT_NE(policy, nullptr);
        EXPECT_EQ(policy->name(), name);
    }
}

TEST(PolicyRegistry, TournamentEntrantsAreRegistered)
{
    EXPECT_TRUE(isRegisteredPolicy("sjf-ibo"));
    EXPECT_TRUE(isRegisteredPolicy("zygarde"));
    EXPECT_TRUE(isRegisteredPolicy("delgado-famaey"));
    EXPECT_TRUE(isRegisteredPolicy("greedy-fcfs"));
    EXPECT_FALSE(isRegisteredPolicy(""));
    EXPECT_FALSE(isRegisteredPolicy("SJF-IBO"));
    EXPECT_FALSE(isRegisteredPolicy("round-robin"));
}

TEST(PolicyRegistry, UnknownPolicyNameDies)
{
    EXPECT_DEATH((void)makePolicy("round-robin"), "unknown policy");
    EXPECT_DEATH((void)makeController(policyRow("round-robin")),
                 "unknown policy");
}

TEST(PolicyRegistry, IncumbentControllerRunsThePaperPolicy)
{
    const auto controller = makeController(policyRow("sjf-ibo"));
    ASSERT_NE(controller, nullptr);
    EXPECT_EQ(controller->name(), "sjf-ibo");
    EXPECT_EQ(controller->policy().name(), "sjf-ibo");
    EXPECT_EQ(makeController(ControllerKind::Quetzal)->policy().name(),
              "sjf-ibo");
}

TEST(PolicyRegistry, ZooControllersReportThePolicyName)
{
    for (const char *name : {"zygarde", "delgado-famaey",
                             "greedy-fcfs"}) {
        SCOPED_TRACE(name);
        const auto controller = makeController(policyRow(name));
        ASSERT_NE(controller, nullptr);
        EXPECT_EQ(controller->name(), name);
        EXPECT_EQ(controller->policy().name(), name);
    }
}

TEST(PolicyRegistry, EveryZooRowNamesItsFleetRule)
{
    // The fleet coordinator reads this column; each zoo policy runs
    // its own directive rule at fleet scale.
    EXPECT_EQ(policyRow(kPaperPolicy).fleetRule,
              FleetRule::OverflowPrevention);
    EXPECT_EQ(policyRow("zygarde").fleetRule, FleetRule::DeadlineDrain);
    EXPECT_EQ(policyRow("delgado-famaey").fleetRule,
              FleetRule::EnergyHorizon);
    EXPECT_EQ(policyRow("greedy-fcfs").fleetRule, FleetRule::FullQuality);
}

TEST(PolicyRegistry, ControllerKindRowsComeFirstInEnumOrder)
{
    const auto rows = controllerRows();
    const auto kinds = static_cast<std::size_t>(ControllerKind::Ideal) + 1;
    ASSERT_EQ(rows.size(), kinds + registeredPolicyNames().size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        SCOPED_TRACE(rows[i].label);
        EXPECT_EQ(rows[i].registered, i >= kinds);
        if (i < kinds) {
            const auto kind = static_cast<ControllerKind>(i);
            EXPECT_EQ(&controllerRow(kind), &rows[i]);
            EXPECT_EQ(controllerKindFromLabel(rows[i].label), kind);
        } else {
            EXPECT_EQ(&policyRow(rows[i].label), &rows[i]);
            EXPECT_FALSE(controllerKindFromLabel(rows[i].label));
        }
    }
    EXPECT_FALSE(controllerKindFromLabel("qz"));
}

} // namespace
} // namespace policy
} // namespace quetzal
