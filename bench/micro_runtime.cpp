/**
 * @file
 * Microbenchmarks of the Quetzal runtime decision path: one full
 * scheduler + IBO-engine invocation over a realistically loaded
 * buffer, the tracker updates, and the PID step.
 */

#include <benchmark/benchmark.h>

#include "gbench_json.hpp"

#include "app/person_detection.hpp"
#include "core/pid.hpp"
#include "policy/registry.hpp"
#include "queueing/bitvector_window.hpp"
#include "queueing/rate_tracker.hpp"

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

void
BM_ControllerSelectJob(benchmark::State &state)
{
    LoadedSystem rig;
    auto controller =
        policy::makeController(policy::ControllerKind::Quetzal);
    double power = 5e-3;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            controller->selectJob(rig.system, rig.buffer, power));
        power = power < 50e-3 ? power + 1e-3 : 5e-3;
    }
}
BENCHMARK(BM_ControllerSelectJob);

void
BM_BitWindowAppend(benchmark::State &state)
{
    queueing::BitVectorWindow window(256);
    bool bit = false;
    for (auto _ : state) {
        window.append(bit);
        benchmark::DoNotOptimize(window.ones());
        bit = !bit;
    }
}
BENCHMARK(BM_BitWindowAppend);

void
BM_ArrivalTrackerCapture(benchmark::State &state)
{
    queueing::ArrivalRateTracker tracker(256, 1.0);
    bool stored = false;
    for (auto _ : state) {
        tracker.recordCapture(stored);
        benchmark::DoNotOptimize(tracker.arrivalsPerSecond());
        stored = !stored;
    }
}
BENCHMARK(BM_ArrivalTrackerCapture);

void
BM_PidUpdate(benchmark::State &state)
{
    core::PidController pid;
    double error = -3.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pid.update(error, 0.5));
        error = -error;
    }
}
BENCHMARK(BM_PidUpdate);

} // namespace

int
main(int argc, char **argv)
{
    return quetzal::bench::quetzalGbenchMain(
        argc, argv, "micro_runtime", "BM_ControllerSelectJob");
}
