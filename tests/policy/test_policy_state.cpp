/**
 * @file
 * Policy state across Controller checkpoints: the one policy a
 * Controller holds is saved and restored whole, whichever table row
 * built it.
 *
 *  - Zygarde's overflow pressure (grown by dropped captures) survives
 *    a save/restore, so the restored controller admits exactly as
 *    the original would have.
 *  - "sjf-ibo" writes the same policy blob — the IBO engine's
 *    per-task option vector — as ControllerKind::Quetzal.
 *  - A checkpoint whose policy blob lacks the state a stateful policy
 *    needs is rejected, not silently resumed.
 */

#include <gtest/gtest.h>

#include <string>

#include "../core/core_test_fixtures.hpp"
#include "policy/registry.hpp"
#include "util/wire.hpp"

namespace quetzal {
namespace policy {
namespace {

using core::testing_fixtures::makeSmallSystem;
using core::testing_fixtures::pushInput;

/** Small system at one capture per second. */
core::testing_fixtures::SmallSystem
oneHertzSystem()
{
    core::SystemConfig config;
    config.captureHz = 1.0;
    return makeSmallSystem(config);
}

std::string
checkpointOf(const core::TaskSystem &system, core::Controller &controller)
{
    std::string bytes;
    util::wire::Archive ar(bytes);
    controller.checkpoint(system, ar);
    return bytes;
}

bool
restore(const core::TaskSystem &system, core::Controller &controller,
        const std::string &bytes)
{
    util::wire::Archive ar{util::wire::Reader(bytes)};
    controller.checkpoint(system, ar);
    return ar.loaded();
}

std::string
policyBlob(const core::TaskSystem &system, core::Controller &controller)
{
    std::string blob;
    util::wire::Archive ar(blob);
    controller.policy().state(system, ar);
    return blob;
}

TEST(PolicyState, ZygardeOverflowPressureSurvivesCheckpoint)
{
    auto s = oneHertzSystem();
    queueing::InputBuffer buffer(10);
    const Tick now = 5 * kTicksPerSecond;
    pushInput(buffer, s, 1, now, s.classifyJob);
    queueing::InputRecord dropped;
    dropped.id = 2;
    dropped.captureTick = now;
    dropped.jobId = s.classifyJob;

    auto original = makeController(policyRow("zygarde"));
    // Ten drops at 1 Hz add ten seconds of pressure: the whole
    // 10 s deadline (capacity / capture rate) of a fresh input.
    for (int i = 0; i < 10; ++i)
        original->onInputDropped(*s.system, buffer, dropped, now);

    auto restored = makeController(policyRow("zygarde"));
    ASSERT_TRUE(
        restore(*s.system, *restored, checkpointOf(*s.system, *original)));
    auto fresh = makeController(policyRow("zygarde"));

    const core::RuntimeObservation runtime{0.05, 0.1, now};
    const auto want = original->selectJob(*s.system, buffer, 1.0, runtime);
    const auto got = restored->selectJob(*s.system, buffer, 1.0, runtime);
    const auto unpressured =
        fresh->selectJob(*s.system, buffer, 1.0, runtime);
    ASSERT_TRUE(want && got && unpressured);
    EXPECT_EQ(got->optionPerTask, want->optionPerTask);
    EXPECT_EQ(got->predictedServiceSeconds, want->predictedServiceSeconds);
    EXPECT_EQ(got->iboPredicted, want->iboPredicted);
    EXPECT_EQ(got->degraded, want->degraded);
    // The pressure decided the admission: without it, full quality.
    EXPECT_TRUE(want->degraded);
    EXPECT_FALSE(unpressured->degraded);
}

TEST(PolicyState, SjfIboBlobEqualsQuetzalBlob)
{
    auto s = oneHertzSystem();
    for (int i = 0; i < 64; ++i)
        s.system->recordCapture(true);
    queueing::InputBuffer buffer(10);
    for (std::uint64_t i = 0; i < 4; ++i)
        pushInput(buffer, s, i, 0, s.transmitJob);
    pushInput(buffer, s, 10, 0, s.classifyJob);

    auto quetzal = makeController(ControllerKind::Quetzal);
    auto ported = makeController(policyRow("sjf-ibo"));
    for (const Watts watts : {10e-3, 40e-3, 1.0}) {
        const auto a = quetzal->selectJob(*s.system, buffer, watts);
        const auto b = ported->selectJob(*s.system, buffer, watts);
        ASSERT_TRUE(a && b);
        EXPECT_EQ(a->optionPerTask, b->optionPerTask);
    }
    ASSERT_GT(quetzal->stats().degradedJobs, 0u);

    // The IBO option vector: its length, then one option per task.
    const std::string blob = policyBlob(*s.system, *quetzal);
    ASSERT_EQ(blob.size(), 1 + s.system->taskCount());
    EXPECT_EQ(static_cast<std::size_t>(blob[0]), s.system->taskCount());
    EXPECT_EQ(policyBlob(*s.system, *ported), blob);
    EXPECT_EQ(checkpointOf(*s.system, *ported),
              checkpointOf(*s.system, *quetzal));
}

TEST(PolicyState, ArchivesWithoutPolicyStateAreRejected)
{
    // greedy-fcfs is stateless: its checkpoint is a stateful policy's
    // layout (same PID presence) with an empty policy blob.
    const auto s = oneHertzSystem();
    const core::TaskSystem &system = *s.system;
    const std::string empty =
        checkpointOf(system, *makeController(policyRow("greedy-fcfs")));
    for (const char *name : {"sjf-ibo", "zygarde"}) {
        SCOPED_TRACE(name);
        auto controller = makeController(policyRow(name));
        EXPECT_FALSE(restore(system, *controller, empty));
        // Its own checkpoint restores cleanly.
        auto twin = makeController(policyRow(name));
        EXPECT_TRUE(
            restore(system, *twin, checkpointOf(system, *controller)));
    }
}

} // namespace
} // namespace policy
} // namespace quetzal
