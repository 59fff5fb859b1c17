/**
 * @file
 * Golden tournament report test: the committed
 * scenarios/tournament.json, run at the check_scenarios.sh event
 * count (50), must print exactly the league table committed at
 * scenarios/golden/tournament.50.txt — on one worker and on four.
 * Intentional format or standings changes regenerate the reference:
 *
 *   QUETZAL_REGEN_GOLDEN=1 ./test_policy --gtest_filter='LeagueGolden.*'
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "scenario/engine.hpp"
#include "scenario/spec.hpp"

#ifndef QUETZAL_SCENARIO_DIR
#error "build must define QUETZAL_SCENARIO_DIR"
#endif

namespace quetzal {
namespace scenario {
namespace {

constexpr std::size_t kEvents = 50;

std::string
runTournament(unsigned jobs)
{
    const std::string path =
        std::string(QUETZAL_SCENARIO_DIR) + "/tournament.json";
    const Expected<ScenarioSpec> spec = loadScenarioFile(path);
    EXPECT_TRUE(spec.ok());
    if (!spec.ok())
        return {};
    const ScenarioPlan plan = compileScenario(*spec.value);

    EngineOptions options;
    options.jobs = jobs;
    options.eventCountOverride = kEvents;
    testing::internal::CaptureStdout();
    (void)runPlan(plan, options);
    return testing::internal::GetCapturedStdout();
}

std::string
goldenPath()
{
    return std::string(QUETZAL_SCENARIO_DIR) + "/golden/tournament." +
        std::to_string(kEvents) + ".txt";
}

TEST(LeagueGolden, TournamentMatchesCommittedLeagueTable)
{
    const std::string output = runTournament(1);
    ASSERT_FALSE(output.empty());
    // The league table is the scenario's only stdout output.
    EXPECT_NE(output.find("=== league: tournament ==="),
              std::string::npos);
    EXPECT_NE(output.find("-- fleet (6 cells) --"), std::string::npos);

    const std::string path = goldenPath();
    if (std::getenv("QUETZAL_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.is_open()) << path;
        out << output;
        return;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.is_open())
        << path << " missing — regenerate with QUETZAL_REGEN_GOLDEN=1";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(output, expected.str())
        << "league table drifted from the committed reference";
}

TEST(LeagueGolden, TournamentIsIdenticalAcrossJobCounts)
{
    const std::string serial = runTournament(1);
    const std::string parallel = runTournament(4);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

} // namespace
} // namespace scenario
} // namespace quetzal
