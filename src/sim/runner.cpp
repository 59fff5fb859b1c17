#include "sim/runner.hpp"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>

#include "util/logging.hpp"

namespace quetzal {
namespace sim {

namespace {

/**
 * Cache key: exactly the ExperimentConfig fields buildEventTrace()
 * and buildPowerTrace() read. Two configs with equal keys describe
 * identical traces.
 */
std::string
traceKey(const ExperimentConfig &cfg)
{
    return util::msg(static_cast<int>(cfg.environment), '|',
                     cfg.eventCount, '|', cfg.seed, '|',
                     cfg.harvesterCells, '|', cfg.sim.drainTicks, '|',
                     cfg.powerTraceCsv);
}

} // namespace

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("QUETZAL_JOBS")) {
        // The whole string must be a decimal in [1, UINT_MAX]: no
        // sign, no suffix, no wrap-around into the unsigned range.
        const char *end = env + std::strlen(env);
        unsigned parsed = 0;
        const auto [stop, ec] = std::from_chars(env, end, parsed);
        if (ec == std::errc() && stop == end && parsed > 0)
            return parsed;
        util::warn(util::msg("ignoring QUETZAL_JOBS '", env,
                             "': not an integer in [1, ",
                             std::numeric_limits<unsigned>::max(), "]"));
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
parallelFor(std::size_t count, unsigned jobs,
            const std::function<void(std::size_t)> &body)
{
    const unsigned requested = jobs > 0 ? jobs : defaultJobs();
    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(requested, count));

    if (workers <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }

    // Each worker claims the next unclaimed index; no two workers
    // ever receive the same index, so as long as the body writes
    // only to per-index slots the result is independent of
    // scheduling order.
    std::atomic<std::size_t> next{0};
    auto work = [&]() {
        while (true) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            body(i);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(work);
    for (std::thread &thread : pool)
        thread.join();
}

void
TraceCache::prepare(ExperimentConfig &config)
{
    if (config.sharedEvents && config.sharedPowerTrace)
        return;

    const std::string key = traceKey(config);
    std::lock_guard<std::mutex> lock(mutex);
    auto it = entries.find(key);
    if (it == entries.end()) {
        // Build while holding the lock: misses serialize, but a trace
        // build is cheap next to the simulation that follows, and
        // this guarantees each key is built exactly once.
        Entry entry;
        entry.events = std::make_shared<const trace::EventTrace>(
            buildEventTrace(config));
        entry.watts = std::make_shared<const energy::PowerTrace>(
            buildPowerTrace(config, *entry.events));
        it = entries.emplace(key, std::move(entry)).first;
    }
    if (!config.sharedEvents)
        config.sharedEvents = it->second.events;
    if (!config.sharedPowerTrace)
        config.sharedPowerTrace = it->second.watts;
}

ParallelRunner::ParallelRunner(unsigned jobs)
    : jobCount(jobs > 0 ? jobs : defaultJobs())
{
}

std::vector<Metrics>
ParallelRunner::runBatch(std::vector<ExperimentConfig> configs)
{
    for (ExperimentConfig &config : configs)
        cache.prepare(config);

    // Runs share only immutable inputs (the traces); each index
    // writes its own result slot.
    std::vector<Metrics> results(configs.size());
    parallelFor(configs.size(), jobCount, [&](std::size_t i) {
        results[i] = runExperiment(configs[i]);
    });
    return results;
}

std::vector<Metrics>
ParallelRunner::runSeeds(const ExperimentConfig &config,
                         const std::vector<std::uint64_t> &seeds)
{
    std::vector<ExperimentConfig> configs;
    configs.reserve(seeds.size());
    for (const std::uint64_t seed : seeds) {
        ExperimentConfig cfg = config;
        cfg.seed = seed;
        // Seeded traces differ per run; never reuse a trace injected
        // for a different seed.
        cfg.sharedEvents.reset();
        cfg.sharedPowerTrace.reset();
        configs.push_back(std::move(cfg));
    }
    return runBatch(std::move(configs));
}

} // namespace sim
} // namespace quetzal
