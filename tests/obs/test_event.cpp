/**
 * @file
 * Unit tests for the telemetry event vocabulary: kind/level naming
 * round-trips, level gating, option packing and the sink/recorder
 * plumbing.
 */

#include <gtest/gtest.h>

#include "obs/event.hpp"
#include "obs/trace_sink.hpp"

namespace quetzal {
namespace obs {
namespace {

TEST(ObsEvent, KindNamesRoundTrip)
{
    for (std::size_t i = 0; i < kEventKindCount; ++i) {
        const auto kind = static_cast<EventKind>(i);
        const std::string_view name = eventKindName(kind);
        EXPECT_FALSE(name.empty());
        const auto parsed = parseEventKind(name);
        ASSERT_TRUE(parsed.has_value()) << name;
        EXPECT_EQ(*parsed, kind);
    }
    EXPECT_FALSE(parseEventKind("no-such-kind").has_value());
}

TEST(ObsEvent, KindNamesAreUnique)
{
    for (std::size_t i = 0; i < kEventKindCount; ++i) {
        for (std::size_t j = i + 1; j < kEventKindCount; ++j) {
            EXPECT_NE(eventKindName(static_cast<EventKind>(i)),
                      eventKindName(static_cast<EventKind>(j)));
        }
    }
}

TEST(ObsEvent, LevelNamesRoundTrip)
{
    for (ObsLevel level : {ObsLevel::Off, ObsLevel::Counters,
                           ObsLevel::Decisions, ObsLevel::Full}) {
        const auto parsed = parseObsLevel(obsLevelName(level));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, level);
    }
    EXPECT_FALSE(parseObsLevel("verbose").has_value());
}

TEST(ObsEvent, MinLevelNeverOff)
{
    // Every kind must be recordable at some enabled level; Off
    // records nothing by definition.
    for (std::size_t i = 0; i < kEventKindCount; ++i) {
        const auto kind = static_cast<EventKind>(i);
        EXPECT_GT(static_cast<int>(minLevel(kind)),
                  static_cast<int>(ObsLevel::Off))
            << eventKindName(kind);
    }
}

TEST(ObsEvent, PackOptionsPacksFourBitsPerTask)
{
    // Task i's option index lands in bits [4i, 4i + 4).
    EXPECT_EQ(packOptions(std::vector<std::size_t>{1, 0, 3, 2}), 0x2301u);
    EXPECT_EQ(packOptions(std::vector<std::size_t>{}), 0u);

    // Maximum supported width: 8 tasks, 4 bits each.
    const std::vector<std::size_t> wide = {15, 14, 13, 12, 11, 10, 9, 8};
    EXPECT_EQ(packOptions(wide), 0x89abcdefu);
}

TEST(ObsRecorder, OffLevelIsInert)
{
    VectorSink sink;
    Recorder recorder(ObsLevel::Off, &sink);
    EXPECT_FALSE(recorder.enabled());
    for (std::size_t i = 0; i < kEventKindCount; ++i)
        EXPECT_FALSE(recorder.wants(static_cast<EventKind>(i)));
    EXPECT_EQ(recorder.level(), ObsLevel::Off);

    Recorder defaulted;
    EXPECT_FALSE(defaulted.enabled());

    Recorder noSink(ObsLevel::Full, nullptr);
    EXPECT_FALSE(noSink.enabled());
    EXPECT_EQ(noSink.level(), ObsLevel::Off);
}

TEST(ObsRecorder, LevelsAreCumulative)
{
    VectorSink sink;
    const Recorder counters(ObsLevel::Counters, &sink);
    const Recorder decisions(ObsLevel::Decisions, &sink);
    const Recorder full(ObsLevel::Full, &sink);
    for (std::size_t i = 0; i < kEventKindCount; ++i) {
        const auto kind = static_cast<EventKind>(i);
        // Whatever a lower level records, every higher level records.
        if (counters.wants(kind)) {
            EXPECT_TRUE(decisions.wants(kind)) << eventKindName(kind);
        }
        if (decisions.wants(kind)) {
            EXPECT_TRUE(full.wants(kind)) << eventKindName(kind);
        }
        // Full records everything.
        EXPECT_TRUE(full.wants(kind)) << eventKindName(kind);
    }
}

TEST(ObsRecorder, StampsEventsWithRunClock)
{
    VectorSink sink;
    Recorder recorder(ObsLevel::Full, &sink);
    recorder.setTime(42);

    Event event;
    event.kind = EventKind::Capture;
    event.tick = 999; // overwritten by the recorder clock
    recorder.record(event);

    recorder.recordAt(7, event);

    ASSERT_EQ(sink.size(), 2u);
    EXPECT_EQ(sink.events()[0].tick, 42);
    EXPECT_EQ(sink.events()[1].tick, 7);
}

} // namespace
} // namespace obs
} // namespace quetzal
