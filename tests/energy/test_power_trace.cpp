/**
 * @file
 * Tests for energy::PowerTrace and its amortized-O(1) Cursor.
 */

#include <random>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "energy/power_trace.hpp"

namespace quetzal {
namespace energy {
namespace {

TEST(PowerTrace, EmptyTraceIsZero)
{
    PowerTrace trace;
    EXPECT_EQ(trace.valueAt(0), 0.0);
    EXPECT_EQ(trace.valueAt(12345), 0.0);
    EXPECT_EQ(trace.nextChangeAfter(0), kTickNever);
    EXPECT_EQ(trace.maxValue(), 0.0);
}

TEST(PowerTrace, ConstantTrace)
{
    const PowerTrace trace = PowerTrace::constant(5e-3);
    EXPECT_DOUBLE_EQ(trace.valueAt(0), 5e-3);
    EXPECT_DOUBLE_EQ(trace.valueAt(1'000'000), 5e-3);
    EXPECT_EQ(trace.nextChangeAfter(0), kTickNever);
}

TEST(PowerTrace, PointQueries)
{
    PowerTrace trace({{0, 1.0}, {100, 2.0}, {250, 0.5}});
    EXPECT_DOUBLE_EQ(trace.valueAt(0), 1.0);
    EXPECT_DOUBLE_EQ(trace.valueAt(99), 1.0);
    EXPECT_DOUBLE_EQ(trace.valueAt(100), 2.0);
    EXPECT_DOUBLE_EQ(trace.valueAt(249), 2.0);
    EXPECT_DOUBLE_EQ(trace.valueAt(250), 0.5);
    EXPECT_DOUBLE_EQ(trace.valueAt(9999), 0.5);
}

TEST(PowerTrace, ValueBeforeFirstSegmentExtendsBackward)
{
    PowerTrace trace({{50, 3.0}});
    EXPECT_DOUBLE_EQ(trace.valueAt(0), 3.0);
    EXPECT_DOUBLE_EQ(trace.valueAt(49), 3.0);
}

TEST(PowerTrace, NextChangeAfter)
{
    PowerTrace trace({{0, 1.0}, {100, 2.0}, {250, 0.5}});
    EXPECT_EQ(trace.nextChangeAfter(0), 100);
    EXPECT_EQ(trace.nextChangeAfter(99), 100);
    EXPECT_EQ(trace.nextChangeAfter(100), 250);
    EXPECT_EQ(trace.nextChangeAfter(250), kTickNever);
}

TEST(PowerTrace, NextChangeSkipsEqualValues)
{
    PowerTrace trace;
    trace.append(0, 1.0);
    trace.append(10, 1.0); // no actual change
    trace.append(20, 2.0);
    EXPECT_EQ(trace.nextChangeAfter(0), 20);
}

TEST(PowerTrace, FromSamplesMergesRuns)
{
    const PowerTrace trace =
        PowerTrace::fromSamples({1.0, 1.0, 1.0, 2.0, 2.0, 3.0}, 10);
    EXPECT_EQ(trace.segmentCount(), 3u);
    EXPECT_DOUBLE_EQ(trace.valueAt(29), 1.0);
    EXPECT_DOUBLE_EQ(trace.valueAt(30), 2.0);
    EXPECT_DOUBLE_EQ(trace.valueAt(50), 3.0);
}

TEST(PowerTrace, MinMaxMean)
{
    PowerTrace trace({{0, 1.0}, {100, 3.0}});
    EXPECT_DOUBLE_EQ(trace.maxValue(), 3.0);
    // Over [0, 200): 100 ticks at 1.0 + 100 ticks at 3.0 -> mean 2.0.
    EXPECT_DOUBLE_EQ(trace.meanValue(200), 2.0);
    // Over [0, 100): only the first value.
    EXPECT_DOUBLE_EQ(trace.meanValue(100), 1.0);
    // Over [0, 400): 100 at 1.0, 300 at 3.0 -> 2.5.
    EXPECT_DOUBLE_EQ(trace.meanValue(400), 2.5);
}

TEST(PowerTrace, Scaled)
{
    PowerTrace trace({{0, 1.0}, {100, 3.0}});
    const PowerTrace doubled = trace.scaled(2.0);
    EXPECT_DOUBLE_EQ(doubled.valueAt(0), 2.0);
    EXPECT_DOUBLE_EQ(doubled.valueAt(100), 6.0);
}

TEST(PowerTrace, CsvRoundTrip)
{
    PowerTrace trace({{0, 1.5}, {10'000, 0.25}});
    std::ostringstream out;
    trace.writeCsv(out);
    std::istringstream in(out.str());
    const PowerTrace parsed = PowerTrace::readCsv(in);
    EXPECT_EQ(parsed.segmentCount(), 2u);
    EXPECT_DOUBLE_EQ(parsed.valueAt(0), 1.5);
    EXPECT_DOUBLE_EQ(parsed.valueAt(10'000), 0.25);
}

TEST(PowerTraceDeathTest, UnsortedSegmentsPanic)
{
    EXPECT_DEATH(PowerTrace({{100, 1.0}, {50, 2.0}}), "sorted");
}

// --- Cursor ---------------------------------------------------------
//
// The contract: a Cursor answers valueAt / nextChangeAfter exactly as
// the owning trace does, for any query sequence (the fast path is
// monotone non-decreasing ticks; backward queries re-seek).

/** A randomized piecewise-constant trace with some equal-value runs. */
PowerTrace
randomTrace(std::uint32_t seed, std::size_t segments)
{
    std::mt19937 rng(seed);
    std::uniform_int_distribution<Tick> gap(1, 500);
    // Few distinct levels so consecutive equal values happen often.
    std::uniform_int_distribution<int> level(0, 3);
    PowerTrace trace;
    Tick start = gap(rng);
    for (std::size_t i = 0; i < segments; ++i) {
        trace.append(start, static_cast<double>(level(rng)) * 1e-3);
        start += gap(rng);
    }
    return trace;
}

TEST(PowerTraceCursor, MatchesTraceOnMonotoneQueries)
{
    for (std::uint32_t seed = 1; seed <= 5; ++seed) {
        const PowerTrace trace = randomTrace(seed, 64);
        PowerTrace::Cursor cursor = trace.cursor();
        std::mt19937 rng(seed ^ 0xc0ffeeu);
        std::uniform_int_distribution<Tick> step(0, 40);
        Tick tick = 0;
        for (int i = 0; i < 4000; ++i) {
            EXPECT_EQ(cursor.valueAt(tick), trace.valueAt(tick))
                << "seed " << seed << " tick " << tick;
            EXPECT_EQ(cursor.nextChangeAfter(tick),
                      trace.nextChangeAfter(tick))
                << "seed " << seed << " tick " << tick;
            tick += step(rng); // non-decreasing, sometimes repeated
        }
    }
}

TEST(PowerTraceCursor, MatchesTraceOnArbitraryQueries)
{
    // Backward jumps force the re-seek path.
    const PowerTrace trace = randomTrace(7, 48);
    PowerTrace::Cursor cursor = trace.cursor();
    std::mt19937 rng(99);
    std::uniform_int_distribution<Tick> anywhere(0, 20'000);
    for (int i = 0; i < 4000; ++i) {
        const Tick tick = anywhere(rng);
        EXPECT_EQ(cursor.valueAt(tick), trace.valueAt(tick))
            << "tick " << tick;
        EXPECT_EQ(cursor.nextChangeAfter(tick),
                  trace.nextChangeAfter(tick))
            << "tick " << tick;
    }
}

TEST(PowerTraceCursor, ResetRestartsFromTheFront)
{
    const PowerTrace trace = randomTrace(11, 32);
    PowerTrace::Cursor cursor = trace.cursor();
    (void)cursor.valueAt(15'000); // advance deep into the trace
    cursor.reset();
    for (Tick tick = 0; tick < 2'000; tick += 13) {
        EXPECT_EQ(cursor.valueAt(tick), trace.valueAt(tick));
        EXPECT_EQ(cursor.nextChangeAfter(tick),
                  trace.nextChangeAfter(tick));
    }
}

TEST(PowerTraceCursor, SkipsEqualValueSegments)
{
    PowerTrace trace;
    trace.append(0, 1.0);
    trace.append(10, 1.0); // no actual change
    trace.append(20, 1.0); // still none
    trace.append(30, 2.0);
    PowerTrace::Cursor cursor = trace.cursor();
    EXPECT_EQ(cursor.nextChangeAfter(0), 30);
    EXPECT_EQ(cursor.nextChangeAfter(15), 30);
    EXPECT_EQ(cursor.nextChangeAfter(30), kTickNever);
}

TEST(PowerTraceCursor, BeforeFirstSegmentExtendsBackward)
{
    PowerTrace trace({{50, 3.0}, {80, 4.0}});
    PowerTrace::Cursor cursor = trace.cursor();
    EXPECT_DOUBLE_EQ(cursor.valueAt(0), 3.0);
    EXPECT_EQ(cursor.nextChangeAfter(0), 80);
    EXPECT_DOUBLE_EQ(cursor.valueAt(80), 4.0);
    EXPECT_EQ(cursor.nextChangeAfter(80), kTickNever);
}

TEST(PowerTraceCursor, EmptyAndDefaultCursorsAreZero)
{
    PowerTrace empty;
    PowerTrace::Cursor cursor = empty.cursor();
    EXPECT_EQ(cursor.valueAt(123), 0.0);
    EXPECT_EQ(cursor.nextChangeAfter(123), kTickNever);

    PowerTrace::Cursor unbound;
    EXPECT_EQ(unbound.valueAt(0), 0.0);
    EXPECT_EQ(unbound.nextChangeAfter(0), kTickNever);
}

} // namespace
} // namespace energy
} // namespace quetzal
