/**
 * @file
 * Wall-clock benchmark of the device span advance layer alone
 * (sim::Device::advance, DESIGN.md section 13): one device of the
 * fleet_starved shape — Apollo4, just-in-time checkpoints, one
 * harvester cell, back-to-back 90 s jobs at 12 mW, a capture draw
 * every 60 s unless the device is off — through one simulated day,
 * repeated. No fleet engine, controller or input buffer runs around
 * it. Emits one line of quetzal-bench-v1 JSON:
 *
 *   {"bench": "micro_device", "reps": ..., "spans_per_device_day": ...,
 *    "ns_per_span": ..., "ns_per_device_day": ...,
 *    "ns_per_device_day_median": ..., "power_failures": ...,
 *    "jobs_completed": ...}
 *
 * A span is one iteration of Device::advance (Device::spans()): one
 * planStep/commitStep pair, or one whole save -> recharge -> restore
 * -> run -> fail cycle of the cycle kernel. "ns_per_span" and
 * "ns_per_device_day" come from the fastest rep. Every rep must end
 * in the same state, or the bench panics.
 *
 * Usage: micro_device [--reps N] [--seed N]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "app/camera.hpp"
#include "app/device_profiles.hpp"
#include "bench_json.hpp"
#include "energy/harvester.hpp"
#include "energy/solar_model.hpp"
#include "sim/device.hpp"
#include "util/logging.hpp"

namespace {

using namespace quetzal;

constexpr Tick kDay = 86'400 * kTicksPerSecond;
constexpr Tick kCapturePeriod = 60 * kTicksPerSecond;
constexpr Tick kJobTicks = 90 * kTicksPerSecond;
constexpr Watts kJobPower = 12e-3;

struct DayResult
{
    std::uint64_t spans = 0;
    std::uint64_t powerFailures = 0;
    std::uint64_t jobsCompleted = 0;
    Joules finalEnergy = 0.0;
};

/** One device-day: the fleet engine's per-device loop without the
 *  buffer (a job is always waiting). */
DayResult
runDay(const app::DeviceProfile &profile, const energy::PowerTrace &watts,
       Joules captureCost)
{
    sim::Device device(profile, watts);
    DayResult result;
    Tick now = 0;
    Tick nextCapture = 0;
    while (now < kDay) {
        if (!device.taskActive())
            device.startTask(kJobPower, kJobTicks);
        const Tick limit = std::min(kDay, nextCapture);
        if (limit > now) {
            now = device.advance(now, limit);
            if (!device.taskActive()) {
                ++result.jobsCompleted;
                continue;
            }
        }
        if (now == nextCapture) {
            if (device.phase() != sim::DevicePhase::Recharging)
                device.drawInstantaneous(captureCost);
            nextCapture += kCapturePeriod;
        }
    }
    result.spans = device.spans();
    result.powerFailures = device.stats().powerFailures;
    result.finalEnergy = device.energy();
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t reps = 1000;
    std::uint64_t seed = 7;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                util::fatal("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--reps")
            reps = std::strtoull(value(), nullptr, 10);
        else if (arg == "--seed")
            seed = std::strtoull(value(), nullptr, 10);
        else
            util::fatal("usage: micro_device [--reps N] [--seed N]");
    }
    if (reps == 0)
        util::fatal("--reps must be positive");

    // The fleet engine's cohort runtime for micro_fleet's cohorts.
    app::DeviceProfile profile = app::apollo4Device();
    profile.checkpoint.policy = app::CheckpointPolicy::JustInTime;
    energy::SolarConfig solarCfg;
    solarCfg.seed = seed ^ 0x5eedf00dull;
    solarCfg.sampleSeconds = 300.0;
    energy::HarvesterConfig harvesterCfg;
    harvesterCfg.cellCount = 1;
    const energy::PowerTrace watts =
        energy::Harvester(harvesterCfg)
            .powerTrace(energy::SolarModel(solarCfg).generate(kDay));
    const Joules captureCost =
        app::cameraModel(app::DeviceKind::Apollo4).captureEnergy();

    std::vector<double> ns;
    ns.reserve(reps);
    DayResult first;
    for (std::size_t r = 0; r < reps; ++r) {
        const auto start = std::chrono::steady_clock::now();
        const DayResult day = runDay(profile, watts, captureCost);
        const auto end = std::chrono::steady_clock::now();
        ns.push_back(static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                end - start).count()));
        if (r == 0) {
            first = day;
        } else if (day.spans != first.spans ||
                   day.powerFailures != first.powerFailures ||
                   day.finalEnergy != first.finalEnergy) {
            util::panic("micro_device: reps diverged");
        }
    }
    std::sort(ns.begin(), ns.end());
    const double best = ns.front();
    const double median = ns[ns.size() / 2];

    bench::JsonLine line("micro_device");
    line.add("reps", reps)
        .add("spans_per_device_day", static_cast<std::size_t>(first.spans))
        .add("ns_per_span", best / static_cast<double>(first.spans), 2)
        .add("ns_per_device_day", best)
        .add("ns_per_device_day_median", median)
        .add("power_failures",
             static_cast<std::size_t>(first.powerFailures))
        .add("jobs_completed",
             static_cast<std::size_t>(first.jobsCompleted));
    line.print();
    return 0;
}
