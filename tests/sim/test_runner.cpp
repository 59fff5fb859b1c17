/**
 * @file
 * Tests for the parallel experiment engine: the determinism contract
 * (bit-identical results for every thread count), submission-order
 * results, and the shared-trace cache.
 */

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/ensemble.hpp"
#include "sim/runner.hpp"

namespace quetzal {
namespace sim {
namespace {

ExperimentConfig
smallConfig(ControllerKind kind)
{
    ExperimentConfig cfg;
    cfg.environment = trace::EnvironmentPreset::Crowded;
    cfg.eventCount = 60;
    cfg.controller = kind;
    return cfg;
}

/** Field-for-field equality of two accumulated statistics. */
void
expectStatsIdentical(const util::RunningStats &a,
                     const util::RunningStats &b)
{
    EXPECT_EQ(a.count(), b.count());
    // EXPECT_EQ on doubles is exact comparison: bit-identical, not
    // approximately equal.
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.stddev(), b.stddev());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
    EXPECT_EQ(a.sum(), b.sum());
}

TEST(ParallelRunner, EnsembleSerialAndParallelBitIdentical)
{
    const auto cfg = smallConfig(ControllerKind::Quetzal);
    const std::vector<std::uint64_t> seeds{3, 1, 4, 1, 5, 9, 2, 6};

    const EnsembleResult serial = runEnsemble(cfg, seeds, 1);
    const EnsembleResult parallel = runEnsemble(cfg, seeds, 4);

    EXPECT_EQ(serial.runs, parallel.runs);
    expectStatsIdentical(serial.discardedPct, parallel.discardedPct);
    expectStatsIdentical(serial.iboPct, parallel.iboPct);
    expectStatsIdentical(serial.fnPct, parallel.fnPct);
    expectStatsIdentical(serial.highQualityShare,
                         parallel.highQualityShare);
    expectStatsIdentical(serial.reportedInputs,
                         parallel.reportedInputs);
    expectStatsIdentical(serial.jobsCompleted, parallel.jobsCompleted);
}

TEST(ParallelRunner, RunManyMatchesIndividualRunsInOrder)
{
    std::vector<ExperimentConfig> configs{
        smallConfig(ControllerKind::NoAdapt),
        smallConfig(ControllerKind::Quetzal),
        smallConfig(ControllerKind::CatNap),
    };
    configs[1].seed = 11; // mix seeds to exercise the trace cache

    ParallelRunner runner(4);
    const std::vector<Metrics> batch = runner.runBatch(configs);
    ASSERT_EQ(batch.size(), configs.size());

    for (std::size_t i = 0; i < configs.size(); ++i) {
        const Metrics single = runExperiment(configs[i]);
        EXPECT_EQ(batch[i].interestingDiscardedTotal(),
                  single.interestingDiscardedTotal());
        EXPECT_EQ(batch[i].txInterestingHq, single.txInterestingHq);
        EXPECT_EQ(batch[i].txInterestingLq, single.txInterestingLq);
        EXPECT_EQ(batch[i].jobsCompleted, single.jobsCompleted);
        EXPECT_EQ(batch[i].powerFailures, single.powerFailures);
        EXPECT_EQ(batch[i].simulatedTicks, single.simulatedTicks);
    }
}

TEST(ParallelRunner, RunSeedsProducesPerSeedResults)
{
    const auto cfg = smallConfig(ControllerKind::NoAdapt);
    ParallelRunner runner(2);
    const std::vector<std::uint64_t> seeds{7, 8};
    const std::vector<Metrics> results = runner.runSeeds(cfg, seeds);
    ASSERT_EQ(results.size(), 2u);

    ExperimentConfig first = cfg;
    first.seed = 7;
    const Metrics single = runExperiment(first);
    EXPECT_EQ(results[0].interestingDiscardedTotal(),
              single.interestingDiscardedTotal());
    // Different seeds give a different environment.
    EXPECT_NE(results[0].interestingInputsNominal,
              results[1].interestingInputsNominal);
}

TEST(TraceCache, SharesTracesAcrossEqualKeys)
{
    TraceCache cache;
    ExperimentConfig a = smallConfig(ControllerKind::Quetzal);
    ExperimentConfig b = smallConfig(ControllerKind::NoAdapt);

    cache.prepare(a);
    cache.prepare(b);
    ASSERT_TRUE(a.sharedEvents);
    ASSERT_TRUE(a.sharedPowerTrace);
    // Same trace parameters: one cache entry, shared read-only.
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(a.sharedEvents.get(), b.sharedEvents.get());
    EXPECT_EQ(a.sharedPowerTrace.get(), b.sharedPowerTrace.get());

    // A different seed describes different traces.
    ExperimentConfig c = smallConfig(ControllerKind::Quetzal);
    c.seed = 123;
    cache.prepare(c);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_NE(c.sharedEvents.get(), a.sharedEvents.get());
}

TEST(TraceCache, SharedTracesReproduceUnsharedMetrics)
{
    const ExperimentConfig plain = smallConfig(ControllerKind::Quetzal);
    const Metrics unshared = runExperiment(plain);

    TraceCache cache;
    ExperimentConfig shared = plain;
    cache.prepare(shared);
    const Metrics viaCache = runExperiment(shared);

    EXPECT_EQ(unshared.interestingDiscardedTotal(),
              viaCache.interestingDiscardedTotal());
    EXPECT_EQ(unshared.txInterestingHq, viaCache.txInterestingHq);
    EXPECT_EQ(unshared.jobsCompleted, viaCache.jobsCompleted);
    EXPECT_EQ(unshared.simulatedTicks, viaCache.simulatedTicks);
}

TEST(ParallelRunner, DefaultJobsIsPositive)
{
    EXPECT_GE(defaultJobs(), 1u);
    EXPECT_GE(ParallelRunner().jobs(), 1u);
    EXPECT_EQ(ParallelRunner(3).jobs(), 3u);
}

// One QUETZAL_JOBS value per case. `value` gets the hardware
// fallback so a case can build a count that differs from it;
// `accepted` is the expected job count, or 0 when the value must be
// rejected with a warning and defaultJobs() must fall back.
struct JobsEnvCase
{
    const char *name;
    std::string (*value)(unsigned fallback);
    unsigned accepted;
};

// Print the case by name, so the discovered test names carry no
// function-pointer bytes.
void
PrintTo(const JobsEnvCase &c, std::ostream *os)
{
    *os << c.name;
}

class DefaultJobsEnv : public ::testing::TestWithParam<JobsEnvCase>
{
  protected:
    void SetUp() override
    {
        if (const char *saved = std::getenv("QUETZAL_JOBS"))
            before = saved;
        ::unsetenv("QUETZAL_JOBS");
        fallback = defaultJobs();
    }

    void TearDown() override
    {
        if (before)
            ::setenv("QUETZAL_JOBS", before->c_str(), 1);
        else
            ::unsetenv("QUETZAL_JOBS");
    }

    std::optional<std::string> before;
    unsigned fallback = 0;
};

// defaultJobs() only parses; it starts no threads, so even the
// largest accepted value is safe to ask for here.
TEST_P(DefaultJobsEnv, ParsesWholeValue)
{
    const JobsEnvCase &c = GetParam();
    const std::string value = c.value(fallback);
    ::setenv("QUETZAL_JOBS", value.c_str(), 1);
    ::testing::internal::CaptureStderr();
    const unsigned jobs = defaultJobs();
    const std::string err = ::testing::internal::GetCapturedStderr();

    const bool rejected = c.accepted == 0;
    EXPECT_EQ(jobs, rejected ? fallback : c.accepted)
        << "QUETZAL_JOBS='" << value << "'";
    EXPECT_EQ(err.find("QUETZAL_JOBS") != std::string::npos, rejected)
        << "QUETZAL_JOBS='" << value << "': " << err;
}

INSTANTIATE_TEST_SUITE_P(
    QuetzalJobs, DefaultJobsEnv,
    ::testing::Values(
        JobsEnvCase{"Three", [](unsigned) { return std::string("3"); },
                    3u},
        JobsEnvCase{"UintMax",
                    [](unsigned) {
                        return std::to_string(
                            std::numeric_limits<unsigned>::max());
                    },
                    std::numeric_limits<unsigned>::max()},
        JobsEnvCase{"TrailingSuffix",
                    [](unsigned) { return std::string("4x"); }, 0u},
        JobsEnvCase{"WrapsPastUintMax",
                    [](unsigned) { return std::string("4294967297"); },
                    0u},
        JobsEnvCase{"Zero", [](unsigned) { return std::string("0"); },
                    0u},
        JobsEnvCase{"Negative",
                    [](unsigned) { return std::string("-2"); }, 0u},
        JobsEnvCase{"Empty", [](unsigned) { return std::string(); },
                    0u},
        // A suffixed count other than the fallback, so a prefix parse
        // cannot pass by coincidence on a host with that many cores.
        JobsEnvCase{"SuffixedNonFallback",
                    [](unsigned fallback) {
                        return std::to_string(fallback + 1) + "x";
                    },
                    0u}),
    [](const auto &info) { return std::string(info.param.name); });

} // namespace
} // namespace sim
} // namespace quetzal
