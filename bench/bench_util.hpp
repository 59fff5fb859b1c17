/**
 * @file
 * Shared helpers for the figure-reproduction benchmarks: section
 * banners and the parallel fan-out every benchmark uses; rows and
 * the paper's ratios come straight from the sim/metrics printers
 * the scenario engine also uses. Each benchmark
 * builds its full batch of experiment configurations up front, runs
 * it on the shared ParallelRunner (worker count from QUETZAL_JOBS,
 * default hardware concurrency), then prints from the in-order
 * results — output is bit-identical to the old serial drivers.
 */

#ifndef QUETZAL_BENCH_BENCH_UTIL_HPP
#define QUETZAL_BENCH_BENCH_UTIL_HPP

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/runner.hpp"

namespace quetzal {
namespace bench {

/** Print a section banner. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

/** The process-wide experiment runner used by the figure drivers.
 *  Its trace cache persists across batches, so repeated panels over
 *  the same environment reuse one solar/event trace pair. */
inline sim::ParallelRunner &
runner()
{
    static sim::ParallelRunner instance;
    return instance;
}

/** Run a batch of configurations; results in submission order. */
inline std::vector<sim::Metrics>
runConfigs(std::vector<sim::ExperimentConfig> configs)
{
    return runner().runBatch(std::move(configs));
}

/** Standard figure configuration (Table 1 defaults). */
inline sim::ExperimentConfig
makeConfig(sim::ControllerKind kind, trace::EnvironmentPreset env,
           std::size_t events = 1000, std::uint64_t seed = 42)
{
    sim::ExperimentConfig cfg;
    cfg.environment = env;
    cfg.eventCount = events;
    cfg.controller = kind;
    cfg.seed = seed;
    return cfg;
}

/** Run one configuration (convenience wrapper). */
inline sim::Metrics
runKind(sim::ControllerKind kind, trace::EnvironmentPreset env,
        std::size_t events = 1000, std::uint64_t seed = 42)
{
    return runConfigs({makeConfig(kind, env, events, seed)}).front();
}

} // namespace bench
} // namespace quetzal

#endif // QUETZAL_BENCH_BENCH_UTIL_HPP
