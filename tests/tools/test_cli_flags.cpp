/**
 * @file
 * quetzal-sim's flag checking (tools/cli_flags.hpp). Every experiment
 * flag must land on the ExperimentConfig exactly as the same value in
 * a scenario file does, and reject exactly what the scenario file
 * rejects; the flags without a field-table row must reject trailing
 * junk, empty strings, signs on unsigned values, non-finite and
 * out-of-range values. Rejections exit 1 naming the flag and the
 * value (the diagnostic scripts/check_cli.sh asserts end to end).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "cli_flags.hpp"
#include "scenario/compile.hpp"
#include "scenario/spec.hpp"
#include "sim/checkpoint.hpp"

namespace quetzal {
namespace cli {
namespace {

/** One flag, a value both front ends accept and one both reject. */
struct FlagCase
{
    const char *flag;
    const char *accepted;     ///< CLI text (nullptr: takes no value)
    const char *acceptedJson; ///< the same value in a scenario file
    const char *rejected;     ///< CLI text (nullptr: takes no value)
    const char *rejectedJson; ///< the same value in a scenario file
};

const FlagCase kCases[] = {
    {"--controller", "THR", R"("THR")", "WARP", R"("WARP")"},
    {"--policy", "zygarde", R"("zygarde")", "nope", R"("nope")"},
    {"--env", "msp430", R"("msp430")", "nowhere", R"("nowhere")"},
    {"--device", "msp430", R"("msp430")", "z80", R"("z80")"},
    {"--events", "300", "300", "0", "0"},
    {"--seed", "77", "77", "-1", "-1"},
    {"--buffer", "7", "7", "-3", "-3"},
    {"--cells", "4", "4", "3.7", "3.7"},
    {"--capture-period-ms", "2500", "2500", "0", "0"},
    {"--threshold", "37.5", "0.375", "150", "1.5"},
    {"--arrival-window", "128", "128", "65537", "65537"},
    {"--task-window", "16", "16", "4097", "4097"},
    {"--power-trace", "solar.csv", R"("solar.csv")", "", R"("")"},
    {"--no-pid", nullptr, "false", nullptr, nullptr},
    {"--no-circuit", nullptr, "false", nullptr, nullptr},
};

/** Test listings name a case by its flag, not by its bytes. */
void
PrintTo(const FlagCase &c, std::ostream *out)
{
    *out << c.flag;
}

const ConfigFlag &
rowFor(const std::string &flag)
{
    for (const ConfigFlag &row : kConfigFlags) {
        if (flag == row.flag)
            return row;
    }
    ADD_FAILURE() << "no flag-table row for " << flag;
    return kConfigFlags[0];
}

/** A one-population scenario whose population sets `field`, or
 *  nothing when `field` is empty. */
std::string
scenarioText(const std::string &field, const std::string &json)
{
    const std::string setting =
        field.empty() ? "" : ", \"" + field + "\": " + json;
    return R"({"name": "cli", "populations": [{"name": "p")" + setting +
        "}]}";
}

/** The compiled config of scenarioText(field, json). */
sim::ExperimentConfig
scenarioConfig(const std::string &field, const std::string &json)
{
    const scenario::Expected<scenario::ScenarioSpec> spec =
        scenario::parseScenarioText(scenarioText(field, json));
    for (const scenario::SpecError &error : spec.errors)
        ADD_FAILURE() << error.describe();
    if (!spec.ok())
        return {};
    const scenario::ScenarioPlan plan =
        scenario::compileScenario(*spec.value);
    if (plan.runs.size() != 1) {
        ADD_FAILURE() << "expected a one-run plan";
        return {};
    }
    return plan.runs.front().config;
}

std::string
caseName(const testing::TestParamInfo<FlagCase> &info)
{
    std::string name;
    for (const char *c = info.param.flag; *c != '\0'; ++c) {
        if (*c != '-')
            name += *c;
    }
    return name;
}

TEST(CliFlagTable, EveryRowNamesAFieldAndHasACase)
{
    for (const ConfigFlag &row : kConfigFlags) {
        EXPECT_TRUE(scenario::fields::knownField(row.field))
            << row.flag << " -> " << row.field;
        bool covered = false;
        for (const FlagCase &c : kCases)
            covered = covered || std::string(c.flag) == row.flag;
        EXPECT_TRUE(covered) << row.flag << " has no case here";
    }
    EXPECT_EQ(std::size(kCases), std::size(kConfigFlags));
}

class CliConfigFlag : public testing::TestWithParam<FlagCase>
{};

TEST_P(CliConfigFlag, AppliesLikeTheScenarioField)
{
    const FlagCase &c = GetParam();
    const ConfigFlag &row = rowFor(c.flag);

    // Start from the scenario's own population defaults, so the only
    // difference between the two configs is the value under test.
    const sim::ExperimentConfig base = scenarioConfig("", "");
    sim::ExperimentConfig viaFlag = base;
    applyConfigFlag(row, c.accepted ? c.accepted : "", viaFlag);
    const sim::ExperimentConfig viaFile =
        scenarioConfig(row.field, c.acceptedJson);

    EXPECT_EQ(sim::experimentFingerprint(viaFlag),
              sim::experimentFingerprint(viaFile));
    EXPECT_NE(sim::experimentFingerprint(viaFlag),
              sim::experimentFingerprint(base))
        << c.flag << " did not change the config";
}

INSTANTIATE_TEST_SUITE_P(EveryFlag, CliConfigFlag,
                         testing::ValuesIn(kCases), caseName);

class CliConfigFlagReject : public testing::TestWithParam<FlagCase>
{};

TEST_P(CliConfigFlagReject, RejectsWhatTheScenarioFieldRejects)
{
    const FlagCase &c = GetParam();
    const ConfigFlag &row = rowFor(c.flag);

    const scenario::Expected<scenario::ScenarioSpec> spec =
        scenario::parseScenarioText(scenarioText(row.field, c.rejectedJson));
    ASSERT_FALSE(spec.ok());
    ASSERT_FALSE(spec.errors.empty());
    EXPECT_EQ(spec.errors.front().path,
              std::string("populations[0].") + row.field);

    sim::ExperimentConfig cfg;
    EXPECT_EXIT(applyConfigFlag(row, c.rejected, cfg),
                testing::ExitedWithCode(1),
                std::string("invalid ") + c.flag + " '" + c.rejected +
                    "': " + row.field);
}

/** The flags that take a value (the others cannot be given a bad one). */
std::vector<FlagCase>
valuedCases()
{
    std::vector<FlagCase> cases;
    for (const FlagCase &c : kCases) {
        if (c.rejected != nullptr)
            cases.push_back(c);
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(EveryValuedFlag, CliConfigFlagReject,
                         testing::ValuesIn(valuedCases()), caseName);

TEST(CheckedNumber, AcceptsAWholeInRangeValue)
{
    EXPECT_EQ(checkedNumber<unsigned>("--jobs", "8", 0), 8u);
    EXPECT_EQ(checkedNumber<std::size_t>("--ensemble", "1000000", 1,
                                         1'000'000),
              1'000'000u);
    EXPECT_EQ(checkedNumber<std::uint64_t>("--checkpoint-every", "1", 1),
              1u);
    EXPECT_DOUBLE_EQ(
        checkedNumber<double>("--telemetry-cost-s", "2.5e-3", 0.0),
        2.5e-3);
    EXPECT_DOUBLE_EQ(checkedNumber<double>("--telemetry-cost-j", "0", 0.0),
                     0.0);
}

TEST(CheckedNumber, RejectsTrailingJunk)
{
    EXPECT_EXIT(checkedNumber<unsigned>("--jobs", "2x", 0),
                testing::ExitedWithCode(1), "invalid --jobs '2x'");
    EXPECT_EXIT(checkedNumber<std::size_t>("--ensemble", "abc", 1),
                testing::ExitedWithCode(1), "invalid --ensemble 'abc'");
    EXPECT_EXIT(checkedNumber<double>("--telemetry-cost-s", "1.5s", 0.0),
                testing::ExitedWithCode(1),
                "invalid --telemetry-cost-s '1.5s'");
}

TEST(CheckedNumber, RejectsAnEmptyValue)
{
    EXPECT_EXIT(checkedNumber<unsigned>("--jobs", "", 0),
                testing::ExitedWithCode(1), "invalid --jobs ''");
    EXPECT_EXIT(checkedNumber<double>("--telemetry-cost-j", "", 0.0),
                testing::ExitedWithCode(1), "invalid --telemetry-cost-j ''");
}

TEST(CheckedNumber, RejectsASignOnAnUnsignedValue)
{
    // strtoull would have wrapped "-1" to 2^64 - 1.
    EXPECT_EXIT(checkedNumber<std::uint64_t>("--checkpoint-every", "-1", 1),
                testing::ExitedWithCode(1),
                "invalid --checkpoint-every '-1'");
    EXPECT_EXIT(checkedNumber<unsigned>("--jobs", "+2", 0),
                testing::ExitedWithCode(1), "invalid --jobs '\\+2'");
}

TEST(CheckedNumber, RejectsOutOfRangeValues)
{
    EXPECT_EXIT(checkedNumber<std::size_t>("--ensemble", "0", 1, 1'000'000),
                testing::ExitedWithCode(1),
                "invalid --ensemble '0': expects an integer in "
                "\\[1, 1000000\\]");
    EXPECT_EXIT(
        checkedNumber<std::size_t>("--ensemble", "1000001", 1, 1'000'000),
        testing::ExitedWithCode(1), "invalid --ensemble '1000001'");
    EXPECT_EXIT(checkedNumber<unsigned>("--fleet-checkpoint-every", "0", 1),
                testing::ExitedWithCode(1),
                "invalid --fleet-checkpoint-every '0'");
    // Past the type's range: from_chars reports it, nothing wraps.
    EXPECT_EXIT(checkedNumber<long long>("--fleet-stop-after-s",
                                         "99999999999999999999", 1),
                testing::ExitedWithCode(1),
                "invalid --fleet-stop-after-s '99999999999999999999'");
    EXPECT_EXIT(checkedNumber<double>("--telemetry-cost-s", "-0.5", 0.0),
                testing::ExitedWithCode(1),
                "invalid --telemetry-cost-s '-0.5'");
}

TEST(CheckedNumber, RejectsNonFiniteNumbers)
{
    EXPECT_EXIT(checkedNumber<double>("--telemetry-cost-s", "nan", 0.0),
                testing::ExitedWithCode(1),
                "invalid --telemetry-cost-s 'nan': expects a finite "
                "number");
    EXPECT_EXIT(checkedNumber<double>("--telemetry-cost-j", "inf", 0.0),
                testing::ExitedWithCode(1),
                "invalid --telemetry-cost-j 'inf'");
}

} // namespace
} // namespace cli
} // namespace quetzal
