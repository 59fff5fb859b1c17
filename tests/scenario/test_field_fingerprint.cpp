/**
 * @file
 * Every experiment field reaches the checkpoint fingerprint. For each
 * row of the scenario field table, two valid values must give two
 * different sim::experimentFingerprint()s; otherwise a checkpoint
 * taken under one value would resume under the other unchallenged.
 * A row declared output-only here is exempt, but then the value must
 * not change the straight run's report either.
 *
 * The value table must name exactly the field table's keys, so a new
 * field fails this test until it has two values here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/json.hpp"
#include "scenario/spec.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"

namespace quetzal {
namespace scenario {
namespace {

/** Two valid values of one experiment field, as JSON text. */
struct FieldValues
{
    const char *key;
    const char *first;
    const char *second;
    /** The field shapes only output, never the run: exempt from the
     *  fingerprint, held to an identical report instead. */
    bool outputOnly = false;
};

const FieldValues kValues[] = {
    {"device", R"("apollo4")", R"("msp430")"},
    {"environment", R"("crowded")", R"("less-crowded")"},
    {"controller", R"("QZ")", R"("NA")"},
    {"policy", R"("sjf-ibo")", R"("zygarde")"},
    {"events", "100", "200"},
    {"seed", "1", "2"},
    {"cells", "1", "2"},
    {"buffer", "10", "11"},
    {"capture_period_ms", "1000", "2000"},
    {"task_window", "8", "16"},
    {"arrival_window", "16", "32"},
    {"buffer_threshold", "0.25", "0.5"},
    {"power_threshold_fraction", "0.25", "0.5"},
    {"use_pid", "true", "false"},
    {"use_circuit", "true", "false"},
    {"drain_s", "10", "20"},
    {"jitter_sigma", "0", "0.1"},
    {"checkpoint", R"("jit")", R"("periodic")"},
    {"checkpoint_interval_ms", "1000", "2000"},
    {"power_trace_csv", R"("a.csv")", R"("b.csv")"},
    {"pid", R"({"kp": 1e-6})", R"({"kp": 2e-6})"},
    {"faults", R"({"measurement": {"bias_watts": 0.001}})",
     R"({"measurement": {"bias_watts": 0.002}})"},
};

/** The keys of fields::describeFields(), sorted. */
std::vector<std::string>
tableKeys()
{
    std::vector<std::string> keys;
    std::istringstream list(fields::describeFields());
    for (std::string key; std::getline(list >> std::ws, key, ',');)
        keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    return keys;
}

/** A small straight run with `key` set to the JSON value `text`. */
sim::ExperimentConfig
configWith(const char *key, const char *text)
{
    json::ParseError error;
    const auto value = json::parse(text, error);
    EXPECT_TRUE(value.has_value()) << key << ": " << error.describe();
    std::string why;
    EXPECT_TRUE(value && fields::validateField(key, *value, why))
        << key << " = " << text << ": " << why;

    sim::ExperimentConfig config;
    config.eventCount = 20;
    if (value)
        fields::applyField(key, *value, config);
    return config;
}

std::string
straightRunReport(const sim::ExperimentConfig &config)
{
    std::ostringstream out;
    sim::runExperiment(config).printReport(out,
                                           sim::experimentLabel(config));
    return out.str();
}

TEST(FieldFingerprint, ValueTableNamesEveryField)
{
    std::vector<std::string> keys;
    for (const FieldValues &row : kValues)
        keys.push_back(row.key);
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(keys, tableKeys());
}

TEST(FieldFingerprint, TwoValuesOfEveryFieldGiveTwoFingerprints)
{
    for (const FieldValues &row : kValues) {
        SCOPED_TRACE(row.key);
        const sim::ExperimentConfig first = configWith(row.key, row.first);
        const sim::ExperimentConfig second =
            configWith(row.key, row.second);
        if (row.outputOnly) {
            EXPECT_EQ(straightRunReport(first), straightRunReport(second))
                << "an output-only field changed the run";
            continue;
        }
        EXPECT_NE(sim::experimentFingerprint(first),
                  sim::experimentFingerprint(second))
            << row.first << " and " << row.second
            << " resume each other's checkpoints";
    }
}

} // namespace
} // namespace scenario
} // namespace quetzal
