/**
 * @file
 * Serialization tests: JSONL round-trips exactly (randomized events,
 * every kind, extreme values), malformed input dies cleanly, and the
 * Chrome trace_event exporter produces structurally valid JSON even
 * around empty runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/trace_io.hpp"
#include "support/random.hpp"
#include "util/random.hpp"

namespace quetzal {
namespace obs {
namespace {

/** Which Event members a kind's schema serializes. */
struct KindShape
{
    bool id, value, extra, a, b, options;
    std::uint32_t flagMask;
};

/** Mirror of the doc table in event.hpp — divergence between this
 *  and the writer/reader schema fails the round-trip below. */
KindShape
shapeOf(EventKind kind)
{
    switch (kind) {
      case EventKind::Capture:
        return {true, false, false, false, false, false,
                kFlagDifferent | kFlagInteresting};
      case EventKind::InputStored:
      case EventKind::InputDropped:
        return {true, true, false, false, false, false,
                kFlagInteresting};
      case EventKind::ScheduleDecision:
        return {true, true, true, true, true, true,
                kFlagIboPredicted | kFlagDegraded};
      case EventKind::TaskService:
        return {true, true, true, true, true, false, 0};
      case EventKind::IboOutcome:
        return {true, true, false, false, false, false,
                kFlagIboPredicted | kFlagOverflowed | kFlagUnfinished};
      case EventKind::PidUpdate:
        return {true, false, false, true, true, false, 0};
      case EventKind::TaskComplete:
        return {true, true, true, true, false, false, 0};
      case EventKind::JobComplete:
        return {true, true, true, true, false, false,
                kFlagClassify | kFlagTransmit | kFlagPositive |
                    kFlagHighQuality | kFlagInteresting};
      case EventKind::PowerFailure:
        return {false, true, true, false, false, false, 0};
      case EventKind::RechargeInterval:
        return {false, true, false, false, false, false, 0};
      case EventKind::BufferOccupancy:
        return {false, true, true, false, false, false, 0};
      case EventKind::RunEnd:
        return {true, true, true, true, true, false, 0};
      case EventKind::FaultInjected:
        return {true, true, true, true, false, false, 0};
      case EventKind::FaultDetected:
        return {true, false, false, true, true, false, 0};
      case EventKind::FaultMitigated:
        return {true, true, false, true, true, false, 0};
      case EventKind::FleetRollup:
        return {true, true, true, true, true, false, 0};
      case EventKind::FleetCheckpoint:
        return {true, true, true, false, false, false, 0};
      case EventKind::FleetRestore:
        return {true, true, true, false, false, false, kFlagTornTail};
    }
    return {};
}

/** A random double spanning many magnitudes, negatives included. */
double
randomDouble(util::Rng &rng)
{
    const double magnitude =
        uniformIn(rng, -1.0, 1.0) *
        std::pow(10.0, uniformIn(rng, -12.0, 12.0));
    return rng.bernoulli(0.1) ? 0.0 : magnitude;
}

/** A random event whose populated members match the kind's schema. */
Event
randomEventFor(EventKind kind, util::Rng &rng)
{
    const KindShape shape = shapeOf(kind);
    Event event;
    event.kind = kind;
    event.tick = rng.uniformInt(0, 10'000'000'000ll);
    if (shape.id)
        event.id = static_cast<std::uint64_t>(
            rng.uniformInt(0, 1'000'000'000ll));
    if (shape.value)
        event.value = rng.uniformInt(-1'000'000, 1'000'000'000ll);
    if (shape.extra)
        event.extra = rng.uniformInt(-1'000'000, 1'000'000'000ll);
    if (shape.a)
        event.a = randomDouble(rng);
    if (shape.b)
        event.b = randomDouble(rng);
    if (shape.options)
        event.options = static_cast<std::uint32_t>(
            rng.uniformInt(0, 0xffffffffll));
    std::uint32_t flags = 0;
    for (std::uint32_t bit = 1; bit != 0; bit <<= 1) {
        if ((shape.flagMask & bit) && rng.bernoulli(0.5))
            flags |= bit;
    }
    event.flags = flags;
    return event;
}

void
expectEventsEqual(const Event &a, const Event &b)
{
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.tick, b.tick);
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.extra, b.extra);
    EXPECT_EQ(a.a, b.a); // to_chars shortest form round-trips exactly
    EXPECT_EQ(a.b, b.b);
    EXPECT_EQ(a.flags, b.flags);
    EXPECT_EQ(a.options, b.options);
}

TEST(TraceJsonl, RoundTripsRandomizedEventsExactly)
{
    util::Rng rng(2024);
    std::vector<Event> events;
    for (int i = 0; i < 400; ++i) {
        const auto kind = static_cast<EventKind>(
            rng.uniformInt(0, static_cast<std::int64_t>(
                kEventKindCount - 1)));
        events.push_back(randomEventFor(kind, rng));
    }

    std::ostringstream out;
    writeJsonl(out, events, 3);
    std::istringstream in(out.str());
    const std::vector<TraceRecord> records = readJsonl(in);

    ASSERT_EQ(records.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(records[i].run, 3u);
        expectEventsEqual(records[i].event, events[i]);
    }
}

TEST(TraceJsonl, WriterOutputIsDeterministic)
{
    util::Rng rng(7);
    std::vector<Event> events;
    for (int i = 0; i < 50; ++i)
        events.push_back(randomEventFor(
            static_cast<EventKind>(i % kEventKindCount), rng));
    std::ostringstream a;
    std::ostringstream b;
    writeJsonl(a, events, 0);
    writeJsonl(b, events, 0);
    EXPECT_EQ(a.str(), b.str());
}

TEST(TraceJsonl, MultiRunStreamsKeepRunIndices)
{
    util::Rng rng(11);
    const std::vector<Event> runA = {
        randomEventFor(EventKind::Capture, rng)};
    const std::vector<Event> runB = {
        randomEventFor(EventKind::RunEnd, rng),
        randomEventFor(EventKind::JobComplete, rng)};

    std::ostringstream out;
    writeJsonl(out, runA, 0);
    writeJsonl(out, runB, 1);

    std::istringstream in(out.str());
    const auto records = readJsonl(in);
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].run, 0u);
    EXPECT_EQ(records[1].run, 1u);
    EXPECT_EQ(records[2].run, 1u);
}

TEST(TraceJsonl, SkipsBlankAndCommentLines)
{
    std::istringstream in(
        "# a comment\n"
        "\n"
        "{\"run\":0,\"t\":5,\"kind\":\"recharge\",\"ticks\":9}\n"
        "# trailing comment\n");
    const auto records = readJsonl(in);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].event.kind, EventKind::RechargeInterval);
    EXPECT_EQ(records[0].event.tick, 5);
    EXPECT_EQ(records[0].event.value, 9);
}

TEST(TraceJsonl, SchemaHeaderRoundTrips)
{
    std::ostringstream out;
    writeJsonlHeader(out);
    EXPECT_EQ(out.str(), "# quetzal-trace schema_version=1.0\n");

    out << "{\"run\":2,\"t\":5,\"kind\":\"recharge\",\"ticks\":9}\n";
    std::istringstream in(out.str());
    const auto records = readJsonl(in);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].run, 2u);
}

TEST(TraceJsonl, AcceptsSameMajorNewerMinor)
{
    // Minor bumps are backward compatible by definition.
    std::istringstream in(
        "# quetzal-trace schema_version=1.9\n"
        "{\"run\":0,\"t\":5,\"kind\":\"recharge\",\"ticks\":9}\n");
    const auto records = readJsonl(in);
    ASSERT_EQ(records.size(), 1u);
}

TEST(TraceJsonlDeathTest, RejectsUnknownSchemaMajor)
{
    auto parse = [](const char *text) {
        std::istringstream in(text);
        (void)readJsonl(in);
    };
    EXPECT_EXIT(parse("# quetzal-trace schema_version=2.0\n"),
                ::testing::ExitedWithCode(1),
                "unsupported trace schema_version 2.0");
    EXPECT_EXIT(parse("# quetzal-trace schema_version=0.9\n"),
                ::testing::ExitedWithCode(1),
                "unsupported trace schema_version 0.9");
    EXPECT_EXIT(parse("# quetzal-trace schema_version=squid\n"),
                ::testing::ExitedWithCode(1),
                "malformed schema_version header");
}

TEST(TraceJsonlDeathTest, MalformedInputIsFatal)
{
    auto parse = [](const char *text) {
        std::istringstream in(text);
        (void)readJsonl(in);
    };
    EXPECT_EXIT(parse("not json\n"), ::testing::ExitedWithCode(1),
                "trace line 1");
    EXPECT_EXIT(parse("{\"run\":0,\"t\":1}\n"),
                ::testing::ExitedWithCode(1), "missing kind");
    EXPECT_EXIT(parse("{\"run\":0,\"t\":1,\"kind\":\"warp\"}\n"),
                ::testing::ExitedWithCode(1), "unknown kind");
    EXPECT_EXIT(
        parse("{\"run\":0,\"t\":1,\"kind\":\"recharge\",\"watts\":3}\n"),
        ::testing::ExitedWithCode(1), "unknown key");
    EXPECT_EXIT(
        parse("{\"run\":0,\"t\":1,\"kind\":\"recharge\",\"ticks\":x}\n"),
        ::testing::ExitedWithCode(1), "bad integer");
    EXPECT_EXIT(
        parse("{\"run\":0,\"t\":1,\"kind\":\"capture\","
              "\"different\":maybe,\"interesting\":false}\n"),
        ::testing::ExitedWithCode(1), "bad bool");
}

TEST(TraceChrome, ProducesBalancedJsonArray)
{
    util::Rng rng(3);
    std::vector<Event> events;
    for (int i = 0; i < 30; ++i)
        events.push_back(randomEventFor(
            static_cast<EventKind>(i % kEventKindCount), rng));

    std::ostringstream out;
    writeChromeTraceHeader(out);
    bool first = true;
    first = writeChromeTrace(out, events, 0, first);
    first = writeChromeTrace(out, events, 1, first);
    writeChromeTraceFooter(out);
    EXPECT_FALSE(first);

    const std::string text = out.str();
    EXPECT_EQ(text.front(), '[');
    EXPECT_EQ(text.substr(text.size() - 3), "\n]\n");
    EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
              std::count(text.begin(), text.end(), '}'));
    EXPECT_EQ(std::count(text.begin(), text.end(), '['), 1);
    EXPECT_EQ(std::count(text.begin(), text.end(), ']'), 1);
    // No empty elements: "," is always followed by a new object.
    EXPECT_EQ(text.find(",,"), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
}

TEST(TraceChrome, EmptyLeadingRunDoesNotBreakSeparators)
{
    // Regression: an empty first run must not leave the "first
    // element" flag set in a way that emits a second '[' or a
    // leading comma.
    util::Rng rng(5);
    const std::vector<Event> empty;
    const std::vector<Event> one = {
        randomEventFor(EventKind::Capture, rng)};

    std::ostringstream out;
    writeChromeTraceHeader(out);
    bool first = true;
    first = writeChromeTrace(out, empty, 0, first);
    EXPECT_TRUE(first);
    first = writeChromeTrace(out, one, 1, first);
    EXPECT_FALSE(first);
    first = writeChromeTrace(out, empty, 2, first);
    EXPECT_FALSE(first);
    writeChromeTraceFooter(out);

    const std::string text = out.str();
    EXPECT_EQ(std::count(text.begin(), text.end(), '['), 1);
    // The single element starts right after the header, no comma.
    EXPECT_EQ(text.rfind("[\n{", 0), 0u) << text.substr(0, 20);
}

} // namespace
} // namespace obs
} // namespace quetzal
