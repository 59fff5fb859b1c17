/**
 * @file
 * Tests for the controller table's paper rows: every configuration of
 * the paper's evaluation assembles and behaves per its policy.
 */

#include <gtest/gtest.h>

#include "../core/core_test_fixtures.hpp"
#include "policy/registry.hpp"

namespace quetzal {
namespace policy {
namespace {

using core::testing_fixtures::makeSmallSystem;
using core::testing_fixtures::pushInput;

TEST(Factories, NamesAndCollaborators)
{
    EXPECT_EQ(makeController(ControllerKind::NoAdapt)->name(), "NA");
    EXPECT_EQ(makeController(ControllerKind::AlwaysDegrade)->name(), "AD");
    EXPECT_EQ(makeController(ControllerKind::CatNap)->name(), "CN");
    EXPECT_EQ(makeController(ControllerKind::BufferThreshold)->name(),
              "THR");
    EXPECT_EQ(makeController(ControllerKind::Zgo)->name(), "PZO");

    auto noAdapt = makeController(ControllerKind::NoAdapt);
    EXPECT_EQ(noAdapt->policy().name(), "fcfs-full");
    PolicyOptions options;
    options.bufferThreshold = 0.25;
    EXPECT_EQ(makeController(ControllerKind::BufferThreshold, options)
                  ->policy()
                  .name(),
              "fcfs-buffer-25%");
}

TEST(Factories, VariantNamesMatchKind)
{
    using K = ControllerKind;
    EXPECT_EQ(makeController(K::Quetzal)->name(), "QZ");
    EXPECT_EQ(makeController(K::QuetzalFcfs)->name(), "QZ-FCFS");
    EXPECT_EQ(makeController(K::QuetzalLcfs)->name(), "QZ-LCFS");
    EXPECT_EQ(makeController(K::QuetzalAvgSe2e)->name(), "QZ-AvgSe2e");
    EXPECT_EQ(makeController(K::Quetzal)->policy().name(), "sjf-ibo");
    EXPECT_EQ(makeController(K::QuetzalFcfs)->policy().name(), "fcfs-ibo");
    EXPECT_EQ(makeController(K::QuetzalLcfs)->policy().name(), "lcfs-ibo");
    EXPECT_EQ(makeController(K::QuetzalAvgSe2e)->policy().name(),
              "sjf-ibo");
}

TEST(Factories, AvgVariantUsesAveragingEstimator)
{
    auto controller = makeController(ControllerKind::QuetzalAvgSe2e);
    EXPECT_EQ(controller->estimator().name(), "avg-se2e");
    PolicyOptions exact;
    exact.useCircuit = false;
    auto sjf = makeController(ControllerKind::Quetzal, exact);
    EXPECT_EQ(sjf->estimator().name(), "energy-aware(exact)");
}

TEST(Controllers, NoAdaptNeverDegrades)
{
    auto s = makeSmallSystem();
    auto controller = makeController(ControllerKind::NoAdapt);
    queueing::InputBuffer buffer(2);
    pushInput(buffer, s, 1, 0, s.transmitJob);
    pushInput(buffer, s, 2, 0, s.transmitJob);
    const auto selection =
        controller->selectJob(*s.system, buffer, 1e-6);
    ASSERT_TRUE(selection.has_value());
    EXPECT_FALSE(selection->degraded);
    EXPECT_EQ(selection->optionPerTask, std::vector<std::size_t>{0});
}

TEST(Controllers, AlwaysDegradeAlwaysDoes)
{
    auto s = makeSmallSystem();
    auto controller = makeController(ControllerKind::AlwaysDegrade);
    queueing::InputBuffer buffer(10);
    pushInput(buffer, s, 1, 0, s.transmitJob);
    const auto selection =
        controller->selectJob(*s.system, buffer, 1.0);
    ASSERT_TRUE(selection.has_value());
    EXPECT_TRUE(selection->degraded);
    EXPECT_EQ(selection->optionPerTask, std::vector<std::size_t>{1});
}

TEST(Controllers, CatNapDegradesOnlyWhenFull)
{
    auto s = makeSmallSystem();
    auto controller = makeController(ControllerKind::CatNap);
    queueing::InputBuffer buffer(2);
    pushInput(buffer, s, 1, 0, s.transmitJob);
    auto selection = controller->selectJob(*s.system, buffer, 1e-6);
    ASSERT_TRUE(selection.has_value());
    EXPECT_FALSE(selection->degraded);
    pushInput(buffer, s, 2, 0, s.transmitJob);
    selection = controller->selectJob(*s.system, buffer, 1e-6);
    ASSERT_TRUE(selection.has_value());
    EXPECT_TRUE(selection->degraded);
}

TEST(Controllers, QuetzalVariantsShareIboEngine)
{
    for (auto kind : {ControllerKind::Quetzal, ControllerKind::QuetzalFcfs,
                      ControllerKind::QuetzalLcfs,
                      ControllerKind::QuetzalAvgSe2e}) {
        const std::string name = makeController(kind)->policy().name();
        EXPECT_EQ(name.substr(name.size() - 4), "-ibo")
            << controllerRow(kind).label;
    }
}

} // namespace
} // namespace policy
} // namespace quetzal
