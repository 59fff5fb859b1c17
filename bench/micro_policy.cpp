/**
 * @file
 * Microbenchmarks of the policy layer: one full Controller decision
 * of the incumbent (registry "sjf-ibo") on a loaded buffer — the
 * primary metric — the same decision followed by the job completion a
 * run makes after it, plus each zoo policy's rank+admit step through
 * a PolicyContext.
 */

#include <benchmark/benchmark.h>

#include "gbench_json.hpp"

#include "app/person_detection.hpp"
#include "core/service_time.hpp"
#include "policy/registry.hpp"

namespace {

using namespace quetzal;

struct LoadedSystem
{
    core::TaskSystem system;
    app::ApplicationModel appModel;
    queueing::InputBuffer buffer{10};

    LoadedSystem()
        : appModel(app::buildPersonDetectionApp(system,
                                                app::apollo4Device()))
    {
        for (int i = 0; i < 64; ++i)
            system.recordCapture(i % 3 != 0);
        for (std::uint64_t i = 0; i < 6; ++i) {
            queueing::InputRecord record;
            record.id = i;
            record.captureTick = static_cast<Tick>(i) * 1000;
            record.enqueueTick = record.captureTick;
            record.jobId = i % 2 == 0 ? appModel.classifyJob :
                                        appModel.transmitJob;
            buffer.tryPush(record);
        }
    }
};

/** One full Controller decision: the tournament's hot path. */
void
BM_PolicySelectJob(benchmark::State &state)
{
    LoadedSystem rig;
    auto controller = policy::makeController(policy::policyRow("sjf-ibo"));
    const core::RuntimeObservation runtime{0.05, 0.1, 7000};
    double power = 5e-3;
    for (auto _ : state) {
        benchmark::DoNotOptimize(controller->selectJob(
            rig.system, rig.buffer, power, runtime));
        power = power < 50e-3 ? power + 1e-3 : 5e-3;
    }
}
BENCHMARK(BM_PolicySelectJob);

/**
 * One scheduling round as a run makes it: the decision, then the
 * completion that updates the execution-probability windows and the
 * PID loop. BM_PolicySelectJob never completes a job, so nothing a
 * decision derives goes stale between its iterations; here, as in a
 * run, every round starts from changed windows.
 */
void
BM_PolicyRoundWithCompletion(benchmark::State &state)
{
    LoadedSystem rig;
    auto controller = policy::makeController(policy::policyRow("sjf-ibo"));
    const core::RuntimeObservation runtime{0.05, 0.1, 7000};
    double power = 5e-3;
    for (auto _ : state) {
        const auto selection = controller->selectJob(
            rig.system, rig.buffer, power, runtime);
        const core::Job &job = rig.system.job(selection->jobId);
        // Observed == predicted: the PID sees no error and stays put.
        controller->onJobComplete(
            rig.system, *selection,
            core::ExecutedVec(job.tasks.size(), true),
            selection->predictedServiceSeconds);
        power = power < 50e-3 ? power + 1e-3 : 5e-3;
    }
}
BENCHMARK(BM_PolicyRoundWithCompletion);

/** One rank+admit round of a zoo policy through a PolicyContext. */
void
rankAdmit(benchmark::State &state, const char *name)
{
    LoadedSystem rig;
    const auto policy = policy::makePolicy(name);
    const core::EnergyAwareEstimator estimator(/*useCircuit=*/true);
    double watts = 5e-3;
    Tick now = 7000;
    // The context is built as Controller::selectJob builds it: from a
    // PID correction that is not a literal and a named runtime
    // snapshot. With a literal 0.0 and a braced snapshot GCC clears
    // the whole 352-byte context (`rep stos`) before filling it.
    double pidCorrection = 0.0;
    for (auto _ : state) {
        const core::PowerReading power =
            rig.system.measureInputPower(watts);
        const core::RuntimeObservation runtime{0.05, 0.1, now};
        const core::PolicyContext ctx{rig.system, rig.buffer, estimator,
                                      power, pidCorrection, runtime};
        const auto decision = policy->rank(ctx);
        if (decision) {
            benchmark::DoNotOptimize(policy->admit(
                ctx, rig.system.job(decision->jobId)));
        }
        watts = watts < 50e-3 ? watts + 1e-3 : 5e-3;
        now += 1000;
    }
}

void
BM_ZygardeRankAdmit(benchmark::State &state)
{
    rankAdmit(state, "zygarde");
}
BENCHMARK(BM_ZygardeRankAdmit);

void
BM_LookaheadRankAdmit(benchmark::State &state)
{
    rankAdmit(state, "delgado-famaey");
}
BENCHMARK(BM_LookaheadRankAdmit);

void
BM_GreedyFcfsRankAdmit(benchmark::State &state)
{
    rankAdmit(state, "greedy-fcfs");
}
BENCHMARK(BM_GreedyFcfsRankAdmit);

} // namespace

int
main(int argc, char **argv)
{
    return quetzal::bench::quetzalGbenchMain(
        argc, argv, "micro_policy", "BM_PolicySelectJob");
}
