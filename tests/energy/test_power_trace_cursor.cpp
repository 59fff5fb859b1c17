/**
 * @file
 * Differential tests for PowerTrace::Cursor: the amortized-O(1)
 * cursor must answer every query sequence — forward, repeated,
 * backward, at and around segment boundaries — identically to a
 * naive linear-scan oracle and to the trace's own O(log n) queries.
 */

#include <gtest/gtest.h>

#include <vector>

#include "energy/power_trace.hpp"
#include "support/random.hpp"
#include "util/random.hpp"

namespace quetzal {
namespace energy {
namespace {

/** Independent linear-scan oracle (deliberately obvious). */
double
naiveValueAt(const PowerTrace &trace, Tick tick)
{
    const auto &segments = trace.data();
    if (segments.empty())
        return 0.0;
    double value = segments.front().value;
    for (const auto &segment : segments) {
        if (segment.start > tick)
            break;
        value = segment.value;
    }
    return value;
}

/** First strict value change after `tick`, scanning linearly. */
Tick
naiveNextChangeAfter(const PowerTrace &trace, Tick tick)
{
    const double current = naiveValueAt(trace, tick);
    for (const auto &segment : trace.data()) {
        if (segment.start > tick && segment.value != current)
            return segment.start;
    }
    return kTickNever;
}

/** Random trace; consecutive equal values included on purpose. */
PowerTrace
randomTrace(util::Rng &rng)
{
    const auto count = static_cast<std::size_t>(rng.uniformInt(1, 40));
    std::vector<PowerTrace::Segment> segments;
    Tick start = rng.uniformInt(0, 50);
    double value = uniformIn(rng, 0.0, 1.0);
    for (std::size_t i = 0; i < count; ++i) {
        // ~25 %: repeat the value, so nextChangeAfter must skip the
        // boundary (a segment start is not necessarily a change).
        if (!rng.bernoulli(0.25) || segments.empty())
            value = uniformIn(rng, 0.0, 1.0);
        segments.push_back({start, value});
        start += rng.uniformInt(1, 500);
    }
    return PowerTrace(std::move(segments));
}

/** Ticks worth probing: boundaries, their neighbors, and extremes. */
std::vector<Tick>
interestingTicks(const PowerTrace &trace)
{
    std::vector<Tick> ticks = {0, 1};
    for (const auto &segment : trace.data()) {
        if (segment.start > 0)
            ticks.push_back(segment.start - 1);
        ticks.push_back(segment.start);
        ticks.push_back(segment.start + 1);
    }
    ticks.push_back(trace.data().back().start + 1'000'000);
    return ticks;
}

TEST(PowerTraceCursor, MatchesOracleOnMonotoneQueries)
{
    util::Rng rng(4242);
    for (int trial = 0; trial < 50; ++trial) {
        SCOPED_TRACE(trial);
        const PowerTrace trace = randomTrace(rng);
        PowerTrace::Cursor cursor = trace.cursor();

        Tick tick = 0;
        const Tick end = trace.data().back().start + 1000;
        while (tick < end) {
            EXPECT_EQ(cursor.valueAt(tick), naiveValueAt(trace, tick));
            EXPECT_EQ(cursor.valueAt(tick), trace.valueAt(tick));
            EXPECT_EQ(cursor.nextChangeAfter(tick),
                      naiveNextChangeAfter(trace, tick));
            EXPECT_EQ(cursor.nextChangeAfter(tick),
                      trace.nextChangeAfter(tick));
            tick += rng.uniformInt(1, 200);
        }
    }
}

TEST(PowerTraceCursor, MatchesOracleOnRandomJumpQueries)
{
    // Arbitrary (non-monotone) query order: every backward jump must
    // re-seek and still agree everywhere.
    util::Rng rng(77);
    for (int trial = 0; trial < 50; ++trial) {
        SCOPED_TRACE(trial);
        const PowerTrace trace = randomTrace(rng);
        PowerTrace::Cursor cursor = trace.cursor();
        const Tick span = trace.data().back().start + 2000;

        for (int query = 0; query < 200; ++query) {
            const Tick tick = rng.uniformInt(0, span);
            EXPECT_EQ(cursor.valueAt(tick), naiveValueAt(trace, tick));
            EXPECT_EQ(cursor.nextChangeAfter(tick),
                      naiveNextChangeAfter(trace, tick));
        }
    }
}

TEST(PowerTraceCursor, MatchesOracleAtSegmentBoundaries)
{
    util::Rng rng(9);
    for (int trial = 0; trial < 50; ++trial) {
        SCOPED_TRACE(trial);
        const PowerTrace trace = randomTrace(rng);
        PowerTrace::Cursor cursor = trace.cursor();
        for (const Tick tick : interestingTicks(trace)) {
            SCOPED_TRACE(tick);
            EXPECT_EQ(cursor.valueAt(tick), naiveValueAt(trace, tick));
            EXPECT_EQ(cursor.nextChangeAfter(tick),
                      naiveNextChangeAfter(trace, tick));
        }
        // The same boundary set again after reset(), in reverse.
        cursor.reset();
        const std::vector<Tick> ticks = interestingTicks(trace);
        for (auto it = ticks.rbegin(); it != ticks.rend(); ++it) {
            SCOPED_TRACE(*it);
            EXPECT_EQ(cursor.valueAt(*it), naiveValueAt(trace, *it));
            EXPECT_EQ(cursor.nextChangeAfter(*it),
                      naiveNextChangeAfter(trace, *it));
        }
    }
}

TEST(PowerTraceCursor, EmptyAndNullTracesAnswerLikeTheTrace)
{
    const PowerTrace empty;
    PowerTrace::Cursor cursor = empty.cursor();
    EXPECT_EQ(cursor.valueAt(0), 0.0);
    EXPECT_EQ(cursor.valueAt(12345), 0.0);
    EXPECT_EQ(cursor.nextChangeAfter(0), kTickNever);

    PowerTrace::Cursor detached; // no trace at all
    EXPECT_EQ(detached.valueAt(7), 0.0);
    EXPECT_EQ(detached.nextChangeAfter(7), kTickNever);
}

TEST(PowerTraceCursor, InterleavedCursorsDoNotInterfere)
{
    util::Rng rng(13);
    const PowerTrace trace = randomTrace(rng);
    PowerTrace::Cursor ahead = trace.cursor();
    PowerTrace::Cursor behind = trace.cursor();
    const Tick span = trace.data().back().start + 1000;

    for (int query = 0; query < 100; ++query) {
        const Tick far = rng.uniformInt(span / 2, span);
        const Tick near = rng.uniformInt(0, span / 2);
        EXPECT_EQ(ahead.valueAt(far), naiveValueAt(trace, far));
        EXPECT_EQ(behind.valueAt(near), naiveValueAt(trace, near));
    }
}

} // namespace
} // namespace energy
} // namespace quetzal
