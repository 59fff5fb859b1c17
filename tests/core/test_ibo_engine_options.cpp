/**
 * @file
 * Fine-grained tests of Algorithm 2's quality walk with the paper's
 * maximum of four degradation options per task: the engine must pick
 * the *highest-quality* option that avoids the predicted overflow —
 * not merely toggle between extremes — and step exactly one notch
 * further as pressure rises.
 */

#include <gtest/gtest.h>

#include "core_test_fixtures.hpp"
#include "policy/registry.hpp"

namespace quetzal {
namespace core {
namespace {

using testing_fixtures::admitAt;

/**
 * One four-option degradable task; latencies are compute-bound at
 * the probe power so the math is exact: 1.6 / 0.8 / 0.4 / 0.2 s.
 */
struct FourOptionSystem
{
    TaskSystem system;
    TaskId task;
    queueing::JobId job;

    FourOptionSystem()
    {
        task = system.addTask("vision",
                              {{"xl", 1600, 10e-3},
                               {"l", 800, 10e-3},
                               {"m", 400, 10e-3},
                               {"s", 200, 10e-3}});
        job = system.addJob("process", {task});
        // lambda = 1 arrival/s.
        for (int i = 0; i < 64; ++i)
            system.recordCapture(true);
    }
};

/** Buffer with a given backlog of process-job inputs. */
queueing::InputBuffer
backlogOf(std::size_t entries, queueing::JobId job,
          std::size_t capacity = 10)
{
    queueing::InputBuffer buffer(capacity);
    for (std::size_t i = 0; i < entries; ++i) {
        queueing::InputRecord record;
        record.id = i + 1;
        record.jobId = job;
        buffer.tryPush(record);
    }
    return buffer;
}

/** Compute-bound probe: 1 W input power. */
const PowerReading kFullPower{1.0, 255};

TEST(FourOptionWalk, RisingPressureDegradesOneNotchAtATime)
{
    // At lambda = 1/s, option latencies give rho = 1.6 / 0.8 / 0.4 /
    // 0.2. Options "xl" can never keep up; "l" keeps up but with a
    // long busy period. The engine should move down the list only as
    // occupancy (pressure) actually demands.
    FourOptionSystem s;
    const auto ibo = policy::makePolicy("sjf-ibo");

    // Occupancy 1: "l" (rho 0.8 -> horizon 0.8/0.2 = 4 s; expected
    // arrivals 4 < headroom 9). "xl" is unstable -> rejected.
    auto d1 = admitAt(*ibo, s.system, s.system.job(s.job),
                      backlogOf(1, s.job), kFullPower);
    EXPECT_TRUE(d1.iboPredicted);
    EXPECT_EQ(d1.optionPerTask[0], 1u);

    // Occupancy 5: "l" horizon = 5*0.8/0.2 = 20 s -> 20 >= 5: too
    // slow. "m" horizon = 5*0.4/0.6 = 3.33 -> 3.33 < 5: chosen.
    auto d5 = admitAt(*ibo, s.system, s.system.job(s.job),
                      backlogOf(5, s.job), kFullPower);
    EXPECT_TRUE(d5.iboPredicted);
    EXPECT_EQ(d5.optionPerTask[0], 2u);
    EXPECT_TRUE(d5.overflowAvoided);

    // Occupancy 9: headroom 1. "m" horizon = 9*0.4/0.6 = 6 >= 1;
    // "s" horizon = 9*0.2/0.8 = 2.25 >= 1 too: nothing avoids ->
    // fastest option, not avoided.
    auto d9 = admitAt(*ibo, s.system, s.system.job(s.job),
                      backlogOf(9, s.job), kFullPower);
    EXPECT_TRUE(d9.iboPredicted);
    EXPECT_EQ(d9.optionPerTask[0], 3u);
    EXPECT_FALSE(d9.overflowAvoided);
}

TEST(FourOptionWalk, NoPressureKeepsTopQuality)
{
    FourOptionSystem s;
    // Rebuild lambda at a gentle 0.25/s.
    TaskSystem calm;
    const TaskId task = calm.addTask("vision",
                                     {{"xl", 1600, 10e-3},
                                      {"l", 800, 10e-3},
                                      {"m", 400, 10e-3},
                                      {"s", 200, 10e-3}});
    const queueing::JobId job = calm.addJob("process", {task});
    for (int i = 0; i < 64; ++i)
        calm.recordCapture(i % 4 == 0);

    const auto ibo = policy::makePolicy("sjf-ibo");
    const auto decision =
        admitAt(*ibo, calm, calm.job(job), backlogOf(1, job), kFullPower);
    // rho = 0.25 * 1.6 = 0.4; horizon 1.6/0.6 = 2.67 s; expected
    // arrivals 0.67 < headroom 9 -> full quality holds.
    EXPECT_FALSE(decision.iboPredicted);
    EXPECT_EQ(decision.optionPerTask[0], 0u);
}

TEST(FourOptionWalk, RecoveryClimbsAllTheWayBack)
{
    FourOptionSystem s;
    const auto ibo = policy::makePolicy("sjf-ibo");

    // Force deep degradation first...
    const auto pressured =
        admitAt(*ibo, s.system, s.system.job(s.job), backlogOf(9, s.job),
                kFullPower);
    EXPECT_EQ(pressured.optionPerTask[0], 3u);

    // ...then evaluate a calm buffer: the walk restarts from the top
    // each round, so quality returns in one decision, not one notch
    // per decision.
    TaskSystem calm;
    const TaskId task = calm.addTask("vision",
                                     {{"xl", 1600, 10e-3},
                                      {"l", 800, 10e-3},
                                      {"m", 400, 10e-3},
                                      {"s", 200, 10e-3}});
    const queueing::JobId job = calm.addJob("process", {task});
    for (int i = 0; i < 64; ++i)
        calm.recordCapture(i % 8 == 0);
    const auto relaxed =
        admitAt(*ibo, calm, calm.job(job), backlogOf(1, job), kFullPower);
    EXPECT_EQ(relaxed.optionPerTask[0], 0u);
}

} // namespace
} // namespace core
} // namespace quetzal
