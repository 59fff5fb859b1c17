/**
 * @file
 * Differential tests of the O(1) arrival and probability windows.
 *
 * ArrivalRateTracker keeps its recent-burst sum up to date per period
 * and per insertion, and BitVectorWindow keeps its fraction up to
 * date per append. Each is checked here, after every operation and
 * across export/import, against the value the old per-read
 * computation gives: a test-local copy of the kBurstPeriods-step
 * loop over the exported counts, and onesCount / filledBits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "queueing/rate_tracker.hpp"
#include "util/random.hpp"

namespace quetzal {
namespace queueing {
namespace {

/** The burst estimate as it was computed per read: a loop over the
 *  last min(filled, kBurstPeriods) periods of the exported window. */
double
referenceBurst(const ArrivalRateTracker::State &state)
{
    if (state.filledPeriods == 0)
        return 1.0;
    const auto size = static_cast<std::uint32_t>(state.counts.size());
    const std::uint32_t span = std::min(
        state.filledPeriods, ArrivalRateTracker::kBurstPeriods);
    std::uint32_t sum = 0;
    for (std::uint32_t back = 0; back < span; ++back) {
        const std::uint32_t index = (state.cursor + size - back) % size;
        sum += state.counts[index];
    }
    return static_cast<double>(sum) / static_cast<double>(span);
}

std::uint64_t
bits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

/** Burst, full-window and combined rate all match the reference. */
void
expectMatchesReference(const ArrivalRateTracker &tracker, double hz)
{
    const ArrivalRateTracker::State state = tracker.exportState();
    const double burst = referenceBurst(state);
    ASSERT_EQ(bits(tracker.burstInsertionsPerPeriod()), bits(burst));
    ASSERT_EQ(bits(tracker.arrivalsPerSecond()),
              bits(std::max(tracker.insertionsPerPeriod(), burst) * hz));
}

class ArrivalBurstDifferential
    : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(ArrivalBurstDifferential, MatchesTheLoopAfterEveryOperation)
{
    const std::uint32_t window = GetParam();
    const double hz = 0.5;
    ArrivalRateTracker tracker(window, hz);
    util::Rng rng(window * 7919 + 3);
    expectMatchesReference(tracker, hz);

    // A spawn before the first capture opens the first period.
    tracker.recordInsertion();
    expectMatchesReference(tracker, hz);

    bool saturated = false;
    for (int period = 0; period < 2000; ++period) {
        tracker.recordCapture(rng.bernoulli(0.7));
        expectMatchesReference(tracker, hz);
        // Several spawns per period; now and then a burst long enough
        // to saturate the period's count at 255.
        const std::int64_t spawns = rng.bernoulli(0.02)
            ? rng.uniformInt(250, 400) : rng.uniformInt(0, 3);
        for (std::int64_t s = 0; s < spawns; ++s) {
            tracker.recordInsertion();
            expectMatchesReference(tracker, hz);
        }
        const auto counts = tracker.exportState().counts;
        saturated = saturated ||
            std::find(counts.begin(), counts.end(), 255) != counts.end();
        // Export -> import mid-stream, into a fresh tracker that then
        // carries on in place of the old one.
        if (rng.bernoulli(0.05)) {
            ArrivalRateTracker restored(window, hz);
            restored.importState(tracker.exportState());
            expectMatchesReference(restored, hz);
            tracker = restored;
        }
    }
    EXPECT_EQ(tracker.filled(), window);
    EXPECT_TRUE(saturated) << "no period reached 255";
}

INSTANTIATE_TEST_SUITE_P(WindowSizes, ArrivalBurstDifferential,
                         ::testing::Values(1, 8, 15, 16, 17, 256));

TEST(ArrivalBurstDifferential, SaturatedPeriodsStayAt255)
{
    ArrivalRateTracker tracker(17, 1.0);
    for (int period = 0; period < 40; ++period) {
        tracker.recordCapture(true);
        for (int s = 0; s < 300; ++s)
            tracker.recordInsertion();
        expectMatchesReference(tracker, 1.0);
    }
    EXPECT_DOUBLE_EQ(tracker.burstInsertionsPerPeriod(), 255.0);
}

TEST(BitVectorWindowDifferential, FractionIsOnesOverFilledAfterEveryStep)
{
    util::Rng rng(2024);
    for (const std::uint32_t size : {1u, 7u, 64u, 65u, 200u}) {
        BitVectorWindow window(size);
        auto expectFraction = [&](const BitVectorWindow &w) {
            if (w.filled() == 0) {
                ASSERT_EQ(bits(w.fraction(0.25)), bits(0.25));
                return;
            }
            ASSERT_EQ(bits(w.fraction(0.25)),
                      bits(static_cast<double>(w.ones()) /
                           static_cast<double>(w.filled())));
        };
        expectFraction(window);
        for (int i = 0; i < 1500; ++i) {
            window.append(rng.bernoulli(0.3));
            expectFraction(window);
            if (rng.bernoulli(0.05)) {
                BitVectorWindow restored(size);
                restored.importState(window.exportState());
                expectFraction(restored);
                window = restored;
            }
        }
        // Importing an empty window brings the fallback back.
        window.importState(BitVectorWindow(size).exportState());
        expectFraction(window);
    }
}

} // namespace
} // namespace queueing
} // namespace quetzal
