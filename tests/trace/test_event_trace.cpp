/**
 * @file
 * Tests for trace::EventTrace queries and persistence.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "trace/event_trace.hpp"

namespace quetzal {
namespace trace {
namespace {

EventTrace
sample()
{
    return EventTrace({
        {1000, 500, true},
        {3000, 1000, false},
        {10'000, 2000, true},
    });
}

TEST(EventTrace, BasicAccess)
{
    const EventTrace trace = sample();
    EXPECT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.interestingCount(), 2u);
    EXPECT_EQ(trace.endTime(), 12'000);
    EXPECT_EQ(trace.at(1).start, 3000);
}

TEST(EventTrace, EventAtQueries)
{
    const EventTrace trace = sample();
    EXPECT_EQ(trace.eventAt(0), nullptr);
    EXPECT_EQ(trace.eventAt(999), nullptr);
    ASSERT_NE(trace.eventAt(1000), nullptr);
    EXPECT_TRUE(trace.eventAt(1000)->interesting);
    ASSERT_NE(trace.eventAt(1499), nullptr);
    EXPECT_EQ(trace.eventAt(1500), nullptr); // right-open interval
    ASSERT_NE(trace.eventAt(3500), nullptr);
    EXPECT_FALSE(trace.eventAt(3500)->interesting);
    EXPECT_EQ(trace.eventAt(99'999), nullptr);
}

TEST(EventTrace, ActiveAt)
{
    const EventTrace trace = sample();
    EXPECT_TRUE(trace.activeAt(1200));
    EXPECT_TRUE(trace.activeAt(3500));
    EXPECT_FALSE(trace.activeAt(5000));
}

TEST(EventTrace, EmptyTrace)
{
    const EventTrace trace;
    EXPECT_TRUE(trace.empty());
    EXPECT_EQ(trace.endTime(), 0);
    EXPECT_EQ(trace.eventAt(0), nullptr);
}

TEST(EventTrace, CsvRoundTrip)
{
    const EventTrace trace = sample();
    std::ostringstream out;
    trace.writeCsv(out);
    std::istringstream in(out.str());
    const EventTrace parsed = EventTrace::readCsv(in);
    ASSERT_EQ(parsed.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(parsed.at(i).start, trace.at(i).start);
        EXPECT_EQ(parsed.at(i).duration, trace.at(i).duration);
        EXPECT_EQ(parsed.at(i).interesting, trace.at(i).interesting);
    }
}

TEST(EventTraceDeathTest, OverlappingEventsPanic)
{
    EXPECT_DEATH(EventTrace({{0, 100, true}, {50, 100, false}}),
                 "overlap");
}

TEST(EventTraceDeathTest, ZeroDurationPanics)
{
    EXPECT_DEATH(EventTrace({{0, 0, true}}), "duration");
}

} // namespace
} // namespace trace
} // namespace quetzal
