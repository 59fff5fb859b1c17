/**
 * @file
 * Wall-clock microbenchmark of the simulator's run loop: a reference
 * ensemble (Quetzal, Crowded) run serially (jobs=1) and on the
 * parallel runner (--jobs N, default hardware concurrency /
 * QUETZAL_JOBS). Emits one line of JSON for the BENCH_*.json
 * trajectories that scripts/check_bench.sh gates:
 *
 *   {"bench": "micro_simulator", "mode": "quetzal", "runs": 16,
 *    "events": 200, "jobs": 4, "serial_ns_per_run": ...,
 *    "parallel_ns_per_run": ..., "speedup": ..., "ns_per_run": ...}
 *
 * "ns_per_run" is the parallel figure (the configuration a sweep
 * would actually use). Results are asserted bit-identical between
 * the two executions before anything is reported.
 *
 * --trace LEVEL additionally measures the serial ensemble with the
 * telemetry subsystem recording at LEVEL (counters | decisions |
 * full) into per-run in-memory sinks, and reports the relative
 * overhead as "traced_overhead" (traced / untraced serial time).
 * The plain figures measure the default ObsLevel::Off hot path.
 *
 * --ideal switches the ensemble to the infinite-buffer Ideal
 * baseline on the more-crowded environment — the large-buffer regime
 * where occupancy grows into the thousands and the buffer index and
 * the IBO backlog walk dominate; the reported figures track that
 * scenario's cost per run.
 *
 * Usage: micro_simulator [--jobs N] [--runs N] [--events N]
 *                        [--trace LEVEL] [--ideal]
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "obs/trace_sink.hpp"
#include "sim/ensemble.hpp"
#include "sim/runner.hpp"
#include "util/logging.hpp"

namespace {

using namespace quetzal;

double
nsPerRun(const std::chrono::steady_clock::time_point &start,
         const std::chrono::steady_clock::time_point &end,
         std::size_t runs)
{
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        end - start).count();
    return static_cast<double>(ns) / static_cast<double>(runs);
}

/** The determinism contract, enforced before reporting numbers. */
void
assertIdentical(const sim::EnsembleResult &a, const sim::EnsembleResult &b)
{
    if (a.runs != b.runs ||
        a.discardedPct.mean() != b.discardedPct.mean() ||
        a.discardedPct.stddev() != b.discardedPct.stddev() ||
        a.highQualityShare.mean() != b.highQualityShare.mean() ||
        a.jobsCompleted.sum() != b.jobsCompleted.sum())
        util::panic("serial and parallel ensembles diverged");
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = sim::defaultJobs();
    std::size_t runs = 16;
    std::size_t events = 200;
    obs::ObsLevel traceLevel = obs::ObsLevel::Off;
    bool ideal = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "usage: %s [--jobs N] [--runs N] "
                             "[--events N]\n", argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--jobs")
            jobs = static_cast<unsigned>(
                std::strtoul(value(), nullptr, 10));
        else if (arg == "--runs")
            runs = std::strtoull(value(), nullptr, 10);
        else if (arg == "--events")
            events = std::strtoull(value(), nullptr, 10);
        else if (arg == "--trace") {
            const auto level = obs::parseObsLevel(value());
            if (!level)
                util::fatal("unknown trace level");
            traceLevel = *level;
        } else if (arg == "--ideal") {
            ideal = true;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            return 2;
        }
    }
    if (jobs == 0 || runs == 0 || events == 0) {
        std::fprintf(stderr, "arguments must be positive\n");
        return 2;
    }

    sim::ExperimentConfig cfg;
    cfg.environment = ideal ? trace::EnvironmentPreset::MoreCrowded
                            : trace::EnvironmentPreset::Crowded;
    cfg.eventCount = events;
    cfg.controller = ideal ? sim::ControllerKind::Ideal
                           : sim::ControllerKind::Quetzal;

    // Warm-up: touch every code path once so first-run effects
    // (allocator, page faults) do not skew either measurement.
    (void)sim::runEnsemble(cfg, std::size_t{1}, 1);

    using clock = std::chrono::steady_clock;

    const auto serialStart = clock::now();
    const sim::EnsembleResult serial =
        sim::runEnsemble(cfg, runs, 1);
    const auto serialEnd = clock::now();

    const auto parallelStart = clock::now();
    const sim::EnsembleResult parallel =
        sim::runEnsemble(cfg, runs, jobs);
    const auto parallelEnd = clock::now();

    assertIdentical(serial, parallel);

    const double serialNs = nsPerRun(serialStart, serialEnd, runs);
    const double parallelNs = nsPerRun(parallelStart, parallelEnd, runs);

    // Optional traced re-measurement: same serial ensemble with
    // per-run telemetry sinks attached.
    double tracedNs = 0.0;
    std::size_t tracedEvents = 0;
    if (traceLevel != obs::ObsLevel::Off) {
        std::vector<obs::VectorSink> sinks(runs);
        std::vector<sim::ExperimentConfig> configs;
        configs.reserve(runs);
        for (std::size_t i = 0; i < runs; ++i) {
            sim::ExperimentConfig traced = cfg;
            traced.seed = i + 1;
            traced.obsLevel = traceLevel;
            traced.obsSink = &sinks[i];
            configs.push_back(std::move(traced));
        }
        sim::ParallelRunner serialRunner(1);
        const auto tracedStart = clock::now();
        const std::vector<sim::Metrics> tracedMetrics =
            serialRunner.runBatch(configs);
        const auto tracedEnd = clock::now();
        assertIdentical(serial, sim::aggregateEnsemble(tracedMetrics));
        tracedNs = nsPerRun(tracedStart, tracedEnd, runs);
        for (const obs::VectorSink &sink : sinks)
            tracedEvents += sink.size();
    }

    bench::JsonLine line("micro_simulator");
    line.add("mode", ideal ? "ideal" : "quetzal")
        .add("runs", runs)
        .add("events", events)
        .add("jobs", jobs)
        .add("serial_ns_per_run", serialNs)
        .add("parallel_ns_per_run", parallelNs)
        .add("speedup", serialNs / parallelNs, 2)
        .add("ns_per_run", parallelNs);
    if (traceLevel != obs::ObsLevel::Off) {
        line.add("trace_level", obs::obsLevelName(traceLevel))
            .add("traced_ns_per_run", tracedNs)
            .add("trace_events", tracedEvents)
            .add("traced_overhead", tracedNs / serialNs, 3);
    }
    line.print();
    return 0;
}
