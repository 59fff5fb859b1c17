/**
 * @file
 * Shared fixtures for the core-module tests: a small two-job system
 * mirroring the person-detection shape (classify spawns transmit),
 * with costs chosen to make expected values easy to verify by hand,
 * and one-call rank/admit probes of a SchedulingPolicy.
 */

#ifndef QUETZAL_TESTS_CORE_TEST_FIXTURES_HPP
#define QUETZAL_TESTS_CORE_TEST_FIXTURES_HPP

#include <memory>

#include "core/scheduler.hpp"
#include "core/service_time.hpp"
#include "core/system.hpp"
#include "queueing/input_buffer.hpp"

namespace quetzal {
namespace core {
namespace testing_fixtures {

/** Ids of the small reference system. */
struct SmallSystem
{
    std::unique_ptr<TaskSystem> system;
    TaskId mlTask = 0;
    TaskId radioTask = 0;
    JobId classifyJob = 0;
    JobId transmitJob = 0;
};

/**
 * Build the reference system:
 *  ml-task:    high = 1000 ticks @ 20 mW (20 mJ),
 *              low  =  100 ticks @ 10 mW (1 mJ)
 *  radio-task: high =  800 ticks @ 100 mW (80 mJ),
 *              low  =   50 ticks @ 100 mW (5 mJ)
 *  classify = [ml-task] -> transmit on positive
 *  transmit = [radio-task]
 */
inline SmallSystem
makeSmallSystem(const SystemConfig &config = {})
{
    SmallSystem s;
    s.system = std::make_unique<TaskSystem>(config);
    s.mlTask = s.system->addTask(
        "ml-task", {{"ml-high", 1000, 20e-3}, {"ml-low", 100, 10e-3}});
    s.radioTask = s.system->addTask(
        "radio-task",
        {{"radio-high", 800, 100e-3}, {"radio-low", 50, 100e-3}});
    s.transmitJob = s.system->addJob("transmit", {s.radioTask});
    s.classifyJob = s.system->addJob("classify", {s.mlTask},
                                     s.transmitJob);
    return s;
}

/** Push a classify-stage input with the given id/capture time. */
inline void
pushInput(queueing::InputBuffer &buffer, const SmallSystem &s,
          std::uint64_t id, Tick captureTick, JobId job,
          bool interesting = true)
{
    (void)s;
    queueing::InputRecord record;
    record.id = id;
    record.captureTick = captureTick;
    record.enqueueTick = captureTick;
    record.jobId = job;
    record.interesting = interesting;
    buffer.tryPush(record);
}

/**
 * policy.rank() at the given power with the exact-float estimator
 * and no runtime snapshot.
 */
inline std::optional<SchedulerDecision>
rankAt(SchedulingPolicy &policy, const TaskSystem &system,
       const queueing::InputBuffer &buffer, const PowerReading &power,
       double pidCorrection = 0.0)
{
    const EnergyAwareEstimator exact(false);
    return policy.rank({system, buffer, exact, power, pidCorrection, {}});
}

/** policy.admit() for `job`, under the same context as rankAt(). */
inline AdaptationDecision
admitAt(SchedulingPolicy &policy, const TaskSystem &system,
        const Job &job, const queueing::InputBuffer &buffer,
        const PowerReading &power, double pidCorrection = 0.0)
{
    const EnergyAwareEstimator exact(false);
    return policy.admit({system, buffer, exact, power, pidCorrection, {}},
                        job);
}

} // namespace testing_fixtures
} // namespace core
} // namespace quetzal

#endif // QUETZAL_TESTS_CORE_TEST_FIXTURES_HPP
