/**
 * @file
 * Tests for the per-round E[S] table (core::ServiceTerms): every E[S]
 * a scheduling round reads is the very double a direct walk of
 * Σ P(task) x estimate(option, P_in) gives, for every registry row,
 * every option vector and every step of the IBO override walk; and a
 * completion between two rounds is never served a stale term.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/runtime.hpp"
#include "policy/registry.hpp"
#include "queueing/littles_law.hpp"
#include "support/random.hpp"
#include "util/random.hpp"

namespace quetzal {
namespace core {
namespace {

std::uint64_t
bits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

/** E[S] summed directly: from 0.0, in job.tasks order. */
double
directService(const TaskSystem &system, const ServiceTimeEstimator &estimator,
              const PowerReading &power, const Job &job,
              const OptionVec &options = {})
{
    double expected = 0.0;
    for (std::size_t i = 0; i < job.tasks.size(); ++i) {
        const TaskId taskId = job.tasks[i];
        const std::size_t option = options.empty() ? 0 : options[i];
        expected += system.executionProbability(taskId) *
            estimator.estimate(system.task(taskId).option(option), power);
    }
    return expected;
}

/**
 * A system with a non-degradable task shared by two jobs, two
 * degradable tasks of different widths and a conditional tail task,
 * so terms repeat across jobs and probabilities differ per task.
 */
struct Rig
{
    TaskSystem system;
    TaskId sense = 0;
    TaskId ml = 0;
    TaskId radio = 0;
    TaskId log = 0;
    JobId classify = 0;
    JobId transmit = 0;
    JobId probe = 0;
    queueing::InputBuffer buffer{6};
    std::uint64_t nextId = 1;
    Tick now = 0;

    Rig()
    {
        sense = system.addTask("sense", {{"on", 40, 4e-3}});
        ml = system.addTask("ml", {{"large", 1200, 22e-3},
                                   {"medium", 600, 18e-3},
                                   {"small", 250, 15e-3},
                                   {"tiny", 90, 12e-3}});
        radio = system.addTask("radio", {{"full", 800, 90e-3},
                                         {"half", 300, 90e-3},
                                         {"byte", 40, 90e-3}});
        log = system.addTask("log", {{"flash", 70, 9e-3}});
        transmit = system.addJob("transmit", {radio, log});
        classify = system.addJob("classify", {sense, ml, log}, transmit);
        probe = system.addJob("probe", {sense});
    }

    /** One step of random history: captures, pushes, completions. */
    void
    evolve(util::Rng &rng, ServiceTimeEstimator &estimator)
    {
        now += 1000;
        const bool stored = rng.bernoulli(0.8);
        system.recordCapture(stored);
        if (stored) {
            queueing::InputRecord record;
            record.id = nextId++;
            record.captureTick = now;
            record.enqueueTick = now;
            const std::int64_t pick = rng.uniformInt(0, 4);
            record.jobId = pick < 3 ? classify : pick == 3 ? transmit : probe;
            buffer.tryPush(record);
        }
        if (!buffer.empty() && rng.bernoulli(0.6)) {
            const queueing::SlotId slot = *buffer.oldestSchedulable();
            const Job &job = system.job(buffer.record(slot).jobId);
            buffer.markInFlight(slot);
            ExecutedVec executed;
            for (std::size_t i = 0; i < job.tasks.size(); ++i)
                executed.push_back(i == 0 || rng.bernoulli(0.6));
            system.recordJobCompletion(job, executed);
            for (std::size_t i = 0; i < job.tasks.size(); ++i) {
                const Task &task = system.task(job.tasks[i]);
                const std::size_t option = static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<std::int64_t>(
                                          task.optionCount()) - 1));
                estimator.recordObservation(task.option(option),
                                            uniformIn(rng, 0.01, 30.0));
            }
            if (job.id == classify && rng.bernoulli(0.4)) {
                buffer.retagSlot(slot, transmit, now);
                system.recordSpawn();
            } else {
                buffer.releaseSlot(slot);
            }
        }
    }

    /** Every option vector of a job: the degradable task at each of
     *  its options, then every task at its lowest option. */
    std::vector<OptionVec>
    optionVectors(const Job &job) const
    {
        std::vector<OptionVec> vectors{OptionVec{}};
        if (job.degradableIndex) {
            const Task &deg = system.task(job.tasks[*job.degradableIndex]);
            for (std::size_t o = 0; o < deg.optionCount(); ++o) {
                OptionVec options(job.tasks.size(), 0);
                options[*job.degradableIndex] = o;
                vectors.push_back(options);
            }
        }
        OptionVec lowest;
        for (const TaskId taskId : job.tasks)
            lowest.push_back(system.task(taskId).optionCount() - 1);
        vectors.push_back(lowest);
        return vectors;
    }
};

TEST(ServiceTerms, EveryRowReadsTheDirectSumBitForBit)
{
    for (const policy::ControllerRow &row : policy::controllerRows()) {
        SCOPED_TRACE(row.label);
        policy::PolicyOptions options;
        options.datasheetMaxPower = 60e-3;
        auto controller = policy::makeController(row, options);
        ServiceTimeEstimator &estimator = controller->estimator();
        SchedulingPolicy &policy = controller->policy();
        const bool estimates = std::string(row.label) != "greedy-fcfs";

        Rig rig;
        util::Rng rng(0x5eed + std::string(row.label).size());
        for (int round = 0; round < 400; ++round) {
            rig.evolve(rng, estimator);
            const PowerReading power =
                rig.system.measureInputPower(uniformIn(rng, 1e-3, 80e-3));
            const double pid = uniformIn(rng, 0.0, 0.5);
            const PolicyContext ctx{rig.system, rig.buffer, estimator,
                                    power, pid,
                                    {uniformIn(rng, 0.0, 0.1), 0.1, rig.now}};

            // What the row's policy reports: the round's first reads.
            if (const auto decision = policy.rank(ctx)) {
                const Job &job = rig.system.job(decision->jobId);
                const double full =
                    directService(rig.system, estimator, power, job);
                EXPECT_EQ(bits(decision->expectedServiceSeconds),
                          bits(estimates ? std::max(0.0, full + pid) : 0.0));
                const AdaptationDecision adapted = policy.admit(ctx, job);
                if (estimates) {
                    EXPECT_EQ(bits(adapted.predictedServiceSeconds),
                              bits(directService(rig.system, estimator,
                                                 power, job,
                                                 adapted.optionPerTask) +
                                   pid));
                }
            }

            // Then the table itself: every option vector of every job,
            // asked for twice in a shuffled order, so terms the policy
            // derived, fresh ones and reuses are all checked.
            std::vector<std::pair<JobId, OptionVec>> asks;
            for (const Job &job : rig.system.jobs()) {
                for (const OptionVec &v : rig.optionVectors(job)) {
                    asks.emplace_back(job.id, v);
                    asks.emplace_back(job.id, v);
                }
            }
            std::shuffle(asks.begin(), asks.end(), rng);
            for (const auto &[jobId, v] : asks) {
                const Job &job = rig.system.job(jobId);
                ASSERT_EQ(bits(ctx.terms.jobService(job, v)),
                          bits(directService(rig.system, estimator, power,
                                             job, v)));
            }
        }
    }
}

/**
 * Alg. 2 as the engine computed it before the per-round table: every
 * task's term derived afresh for every option of the walk, and every
 * E[S] summed directly.
 */
class ReferenceIbo
{
  public:
    AdaptationDecision
    admit(const TaskSystem &system, const queueing::InputBuffer &buffer,
          const ServiceTimeEstimator &estimator, const PowerReading &power,
          double pid, const Job &job)
    {
        currentOption.resize(system.taskCount(), 0);
        AdaptationDecision decision;
        decision.optionPerTask.assign(job.tasks.size(), 0);
        const double lambda = system.arrivalsPerSecond();
        const std::size_t capacity = buffer.capacity();
        const std::size_t occupancy = buffer.size();
        const double selectedFull = std::max(
            0.0, directService(system, estimator, power, job) + pid);
        decision.predictedServiceSeconds = selectedFull;
        if (!job.degradableIndex) {
            decision.iboPredicted = queueing::iboPredicted(
                lambda, selectedFull, capacity, occupancy);
            decision.overflowAvoided = !decision.iboPredicted;
            return decision;
        }
        const std::size_t degIdx = *job.degradableIndex;
        const TaskId degTaskId = job.tasks[degIdx];
        std::size_t chosen = 0;
        bool avoided = false;
        std::size_t fastest = 0;
        double fastestBacklog = 0.0;
        for (std::size_t opt = 0;
             opt < system.task(degTaskId).optionCount(); ++opt) {
            const double backlog = std::max(
                0.0, backlogSeconds(system, buffer, estimator, power,
                                    degTaskId, opt) + pid);
            const double meanService = occupancy > 0 ?
                backlog / static_cast<double>(occupancy) : 0.0;
            const double rho = lambda * meanService;
            if (opt == 0 || backlog < fastestBacklog) {
                fastest = opt;
                fastestBacklog = backlog;
            }
            const bool overflow = rho < 1.0 ?
                queueing::iboPredicted(lambda, backlog / (1.0 - rho),
                                       capacity, occupancy) :
                true;
            if (opt == 0)
                decision.iboPredicted = overflow;
            if (!overflow) {
                chosen = opt;
                avoided = true;
                break;
            }
        }
        if (!avoided)
            chosen = fastest;
        currentOption[degTaskId] = chosen;
        decision.optionPerTask[degIdx] = chosen;
        decision.degraded = chosen > 0;
        decision.overflowAvoided = avoided;
        if (decision.iboPredicted) {
            decision.predictedServiceSeconds = std::max(
                0.0, directService(system, estimator, power, job,
                                   decision.optionPerTask) + pid);
        }
        return decision;
    }

  private:
    double
    backlogSeconds(const TaskSystem &system,
                   const queueing::InputBuffer &buffer,
                   const ServiceTimeEstimator &estimator,
                   const PowerReading &power, TaskId overrideTask,
                   std::size_t overrideOption) const
    {
        double total = 0.0;
        buffer.forEachFifo([&](queueing::SlotId,
                               const queueing::InputRecord &rec) {
            for (const TaskId taskId : system.job(rec.jobId).tasks) {
                const std::size_t option = taskId == overrideTask ?
                    overrideOption : currentOption[taskId];
                total += system.executionProbability(taskId) *
                    estimator.estimate(system.task(taskId).option(option),
                                       power);
            }
        });
        return total;
    }

    std::vector<std::size_t> currentOption;
};

TEST(ServiceTerms, IboWalkMatchesTheDirectReferenceAtEveryStep)
{
    EnergyAwareEstimator circuit(true);
    EnergyAwareEstimator exact(false);
    AverageServiceTimeEstimator average;
    for (ServiceTimeEstimator *estimator :
         std::vector<ServiceTimeEstimator *>{&circuit, &exact, &average}) {
        SCOPED_TRACE(estimator->name());
        Rig rig;
        const auto engine = policy::makePolicy("sjf-ibo");
        ReferenceIbo reference;
        util::Rng rng(77);
        std::size_t walked = 0;
        for (int round = 0; round < 3000; ++round) {
            rig.evolve(rng, *estimator);
            const PowerReading power =
                rig.system.measureInputPower(uniformIn(rng, 1e-3, 80e-3));
            // Negative corrections reach the clamps too.
            const double pid = uniformIn(rng, -2.0, 2.0);
            const PolicyContext ctx{rig.system, rig.buffer, *estimator,
                                    power, pid, {}};
            // Every job with a buffered input, not only the ranked one.
            for (const Job &job : rig.system.jobs()) {
                if (!rig.buffer.oldestSlotForJob(job.id))
                    continue;
                const AdaptationDecision got = engine->admit(ctx, job);
                const AdaptationDecision want = reference.admit(
                    rig.system, rig.buffer, *estimator, power, pid, job);
                ASSERT_EQ(got.optionPerTask, want.optionPerTask);
                ASSERT_EQ(bits(got.predictedServiceSeconds),
                          bits(want.predictedServiceSeconds));
                ASSERT_EQ(got.iboPredicted, want.iboPredicted);
                ASSERT_EQ(got.degraded, want.degraded);
                ASSERT_EQ(got.overflowAvoided, want.overflowAvoided);
                walked += got.iboPredicted ? 1 : 0;
            }
        }
        // The walk past option 0 actually ran.
        EXPECT_GT(walked, 100u);
    }
}

TEST(ServiceTerms, CompletionBetweenRoundsIsNotServedStale)
{
    for (const auto kind : {policy::ControllerKind::Quetzal,
                            policy::ControllerKind::QuetzalAvgSe2e}) {
        policy::PolicyOptions options;
        options.usePid = false;
        auto controller = policy::makeController(kind, options);
        Rig rig;
        queueing::InputRecord record;
        record.id = rig.nextId++;
        record.jobId = rig.classify;
        rig.buffer.tryPush(record);
        const Job &classify = rig.system.job(rig.classify);

        const auto first =
            controller->selectJob(rig.system, rig.buffer, 20e-3);
        ASSERT_TRUE(first.has_value());
        ASSERT_EQ(first->jobId, rig.classify);

        // Between the rounds: the tail task is skipped (its execution
        // probability drops to 0) and the estimator observes a slow
        // inference run.
        controller->onTaskComplete(rig.system, rig.ml, 0, 25.0);
        controller->onJobComplete(rig.system, *first, {true, true, false},
                                  first->predictedServiceSeconds);

        const auto second =
            controller->selectJob(rig.system, rig.buffer, 20e-3);
        ASSERT_TRUE(second.has_value());
        const PowerReading power = rig.system.measureInputPower(20e-3);
        EXPECT_EQ(bits(second->predictedServiceSeconds),
                  bits(directService(rig.system, controller->estimator(),
                                     power, classify,
                                     second->optionPerTask)));
        EXPECT_NE(bits(second->predictedServiceSeconds),
                  bits(first->predictedServiceSeconds));
    }
}

} // namespace
} // namespace core
} // namespace quetzal
