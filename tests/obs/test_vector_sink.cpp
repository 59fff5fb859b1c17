/**
 * @file
 * VectorSink's per-thread log reuse: a sink starts from the storage
 * the thread's last large sink left behind, yet records, writes and
 * moves exactly as a sink with a fresh log would.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace_io.hpp"
#include "obs/trace_sink.hpp"
#include "sim/experiment.hpp"

namespace quetzal {
namespace obs {
namespace {

Event
numbered(std::uint64_t id)
{
    Event event;
    event.kind = EventKind::InputStored;
    event.tick = static_cast<Tick>(id);
    event.id = id;
    return event;
}

void
recordNumbered(VectorSink &sink, std::uint64_t count)
{
    for (std::uint64_t i = 0; i < count; ++i)
        sink.record(numbered(i));
}

/** A QZ/crowded run at ObsLevel::Full, large enough to regrow a log
 *  several times. */
sim::ExperimentConfig
fullRun()
{
    sim::ExperimentConfig config;
    config.controller = sim::ControllerKind::Quetzal;
    config.environment = trace::EnvironmentPreset::Crowded;
    config.eventCount = 40;
    config.seed = 7;
    config.obsLevel = ObsLevel::Full;
    return config;
}

/** Run `config` into `sink` and return its JSONL trace. */
std::string
recordJsonl(sim::ExperimentConfig config, VectorSink &sink)
{
    config.obsSink = &sink;
    sim::runExperiment(config);
    std::ostringstream out;
    writeJsonlHeader(out);
    writeJsonl(out, sink.events(), 0);
    return out.str();
}

TEST(ObsVectorSink, SecondSinkOnAThreadStartsEmptyWithTheFirstLogsCapacity)
{
    constexpr std::uint64_t kEvents = 5000;
    {
        VectorSink first;
        recordNumbered(first, kEvents);
    }
    {
        VectorSink second;
        EXPECT_EQ(second.size(), 0u);
        EXPECT_TRUE(second.events().empty());
        EXPECT_GE(second.events().capacity(), kEvents);
    }

    // A smaller log destroyed later does not displace the spare.
    std::optional<VectorSink> small;
    {
        VectorSink holder; // takes the spare
        small.emplace();   // so this one starts from nothing
        recordNumbered(*small, 3);
    }
    small.reset();
    VectorSink third;
    EXPECT_GE(third.events().capacity(), kEvents);
}

TEST(ObsVectorSink, RecycledSinkWritesTheSameJsonlAsAFreshThread)
{
    const sim::ExperimentConfig config = fullRun();
    std::string fresh;
    std::size_t events = 0;
    std::thread([&] {
        VectorSink sink;
        fresh = recordJsonl(config, sink);
        events = sink.size();
    }).join();
    ASSERT_GT(events, 1000u);

    // Leave a spare larger than the run, full of other events.
    {
        VectorSink stale;
        recordNumbered(stale, 3 * events);
    }
    VectorSink recycled;
    ASSERT_EQ(recycled.size(), 0u);
    ASSERT_GE(recycled.events().capacity(), 3 * events);
    EXPECT_EQ(recordJsonl(config, recycled), fresh);
    EXPECT_EQ(recycled.size(), events);
}

TEST(ObsVectorSink, MovesClearAndVectorResizeKeepTheirBehaviour)
{
    // Leave a large spare so every new sink below could pick it up.
    {
        VectorSink big;
        recordNumbered(big, 4096);
    }

    VectorSink source;
    recordNumbered(source, 3);
    VectorSink moved(std::move(source));
    EXPECT_EQ(moved.size(), 3u);
    EXPECT_EQ(source.size(), 0u);
    source.record(numbered(9));
    ASSERT_EQ(source.size(), 1u);
    EXPECT_EQ(source.events()[0].id, 9u);

    VectorSink assigned;
    recordNumbered(assigned, 5);
    assigned = std::move(moved);
    ASSERT_EQ(assigned.size(), 3u);
    EXPECT_EQ(assigned.events()[2].id, 2u);

    const std::size_t capacity = assigned.events().capacity();
    assigned.clear();
    EXPECT_EQ(assigned.size(), 0u);
    EXPECT_EQ(assigned.events().capacity(), capacity);

    std::vector<VectorSink> sinks(2);
    for (std::size_t i = 0; i < sinks.size(); ++i)
        recordNumbered(sinks[i], i + 1);
    sinks.resize(64); // reallocates: the two sinks move
    EXPECT_EQ(sinks[0].size(), 1u);
    ASSERT_EQ(sinks[1].size(), 2u);
    EXPECT_EQ(sinks[1].events()[1].id, 1u);
    for (std::size_t i = 2; i < sinks.size(); ++i)
        EXPECT_EQ(sinks[i].size(), 0u) << "sink " << i;
}

TEST(ObsVectorSink, BuiltOnOneThreadRecordedOnAWorkerDestroyedOnAThird)
{
    constexpr std::uint64_t kEvents = 3000;
    std::optional<VectorSink> sink;
    std::thread([&] { sink.emplace(); }).join();
    std::thread([&] { recordNumbered(*sink, kEvents); }).join();
    ASSERT_EQ(sink->size(), kEvents);
    EXPECT_EQ(sink->events().back().id, kEvents - 1);

    // The third thread's spare takes the log; its next sink reuses it.
    std::size_t nextSize = 1;
    std::size_t nextCapacity = 0;
    std::thread([&] {
        sink.reset();
        VectorSink next;
        nextSize = next.size();
        nextCapacity = next.events().capacity();
    }).join();
    EXPECT_EQ(nextSize, 0u);
    EXPECT_GE(nextCapacity, kEvents);
}

TEST(ObsVectorSink, ThreadLocalSinkOutlivingTheSpareFreesItsOwnLog)
{
    // A copy touches no spare, so a thread_local copy made first on a
    // thread is destroyed after that thread's spare. Its log is larger
    // than the spare's, so a destructor that still handed it back
    // would write into a destroyed vector (ASan: double free).
    VectorSink source;
    recordNumbered(source, 5000);
    std::size_t copied = 0;
    std::thread([&] {
        thread_local VectorSink early(source);
        copied = early.size();
        VectorSink later; // creates the spare after `early`
        recordNumbered(later, 1000);
    }).join();
    EXPECT_EQ(copied, 5000u);
}

} // namespace
} // namespace obs
} // namespace quetzal
