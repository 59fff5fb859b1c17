/**
 * @file
 * Parallel experiment-execution engine.
 *
 * Every experiment run is an independent pure function of its
 * ExperimentConfig (each run owns its seed and all mutable state),
 * so ensembles and parameter sweeps parallelize embarrassingly.
 * ParallelRunner executes a batch of configurations on a fixed-size
 * thread pool and returns results in submission order; because runs
 * never share mutable state and aggregation happens serially in
 * submission order, results are bit-identical to a serial loop
 * regardless of thread count (the determinism contract DESIGN.md
 * documents and tests/sim/test_runner.cpp enforces).
 *
 * A TraceCache rides along: runs that agree on their trace
 * parameters (environment, eventCount, seed, harvesterCells,
 * drainTicks, powerTraceCsv) share one read-only EventTrace /
 * PowerTrace pair instead of rebuilding both per run — the common
 * case for controller sweeps at a fixed seed, and for repeated
 * figure panels over the same environment.
 *
 * Callers use ParallelRunner directly: quetzal-sim runs a lone
 * experiment as a one-config batch and a seed ensemble as a batch of
 * seeds, and scenario::runPlan() runs a compiled run matrix.
 */

#ifndef QUETZAL_SIM_RUNNER_HPP
#define QUETZAL_SIM_RUNNER_HPP

#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hpp"

namespace quetzal {
namespace sim {

/**
 * Worker count to use when the caller does not specify one: the
 * QUETZAL_JOBS environment variable when it is exactly a decimal
 * integer in [1, UINT_MAX], otherwise
 * std::thread::hardware_concurrency() (at least 1). A set but
 * invalid QUETZAL_JOBS warns. Starts no threads.
 */
unsigned defaultJobs();

/**
 * Run `count` independent work items on up to `jobs` worker threads
 * (0 = defaultJobs()). Workers claim the next unclaimed index from
 * an atomic counter; the body must not share mutable state across
 * indices. Runs inline (no threads) when count or jobs is <= 1.
 * Deterministic-output building block shared by ParallelRunner and
 * the fleet shard scheduler: because each index owns its slot of the
 * output, results are independent of scheduling order.
 */
void parallelFor(std::size_t count, unsigned jobs,
                 const std::function<void(std::size_t)> &body);

/**
 * Thread-safe cache of the environment traces experiment configs
 * describe. Keyed on exactly the config fields the traces are
 * derived from; everything else (controller, windows, PID flags...)
 * shares the cached pair.
 */
class TraceCache
{
  public:
    /**
     * Fill config.sharedEvents / config.sharedPowerTrace, building
     * and caching the traces on first use of their parameter key.
     * Already-set shared traces are left untouched.
     */
    void prepare(ExperimentConfig &config);

    /** Number of distinct trace keys built so far. */
    std::size_t size() const;

  private:
    struct Entry
    {
        std::shared_ptr<const trace::EventTrace> events;
        std::shared_ptr<const energy::PowerTrace> watts;
    };

    mutable std::mutex mutex;
    std::map<std::string, Entry> entries;
};

/**
 * Deterministic fixed-size thread pool over independent experiment
 * runs. No work stealing, no shared mutable run state: workers pull
 * the next config index from an atomic counter and write the result
 * into its submission slot, so the output vector is independent of
 * scheduling order.
 *
 * Submission vocabulary (shared with sim/ensemble.hpp): a *batch* is
 * an explicit vector of configurations run in submission order; a
 * *seed ensemble* is one base configuration repeated over a seed
 * list. `jobs` always means worker threads (0 = defaultJobs()).
 */
class ParallelRunner
{
  public:
    /** @param jobs worker threads; 0 means defaultJobs(). */
    explicit ParallelRunner(unsigned jobs = 0);

    /** Worker threads this runner uses. */
    unsigned jobs() const { return jobCount; }

    /**
     * Run a batch: every configuration executes once and metrics
     * come back in submission order. Trace parameters shared between
     * configs are built once via the runner's TraceCache.
     */
    std::vector<Metrics> runBatch(std::vector<ExperimentConfig> batch);

    /**
     * Run a seed ensemble: the base configuration once per seed
     * (overriding config.seed), metrics in seed-list order.
     */
    std::vector<Metrics> runSeeds(const ExperimentConfig &config,
                                  const std::vector<std::uint64_t> &seeds);

  private:
    unsigned jobCount;
    TraceCache cache;
};

} // namespace sim
} // namespace quetzal

#endif // QUETZAL_SIM_RUNNER_HPP
