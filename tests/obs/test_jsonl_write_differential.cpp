/**
 * @file
 * Differential test of the trace writers against the ones they
 * replaced. `legacy::` below holds those writers verbatim: writeJsonl
 * and writeChromeTrace built each line in a std::string from the
 * per-kind schema table and sent it with `out << line`. The current
 * writers format into a bounded chunk buffer from precomputed
 * literals; every input here must give both the same bytes. The
 * inputs cover every kind, every flag subset of each kind, the
 * extremes of every member (INT64_MIN/MAX, UINT64_MAX ids and run
 * indices, -0.0, NaN, infinities, denormals, DBL_MAX,
 * options = 0xFFFFFFFF) and a stream long enough to cross many chunk
 * flushes. A stream that goes bad in mid-write must still fail
 * writeTraceFile by name.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "obs/trace_io.hpp"
#include "obs/trace_sink.hpp"
#include "support/random.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"

namespace quetzal {
namespace obs {
namespace {

namespace legacy {

/** Which POD member a JSON key maps to. */
enum class Field : std::uint8_t { Id, Value, Extra, A, B, Options };

struct FieldDesc
{
    const char *key;
    Field field;
};

struct FlagDesc
{
    const char *key;
    std::uint32_t bit;
};

struct Schema
{
    std::vector<FieldDesc> fields;
    std::vector<FlagDesc> flags;
};

const Schema &
schemaFor(EventKind kind)
{
    static const Schema kSchemas[kEventKindCount] = {
        // Capture
        {{{"input", Field::Id}},
         {{"different", kFlagDifferent}, {"interesting", kFlagInteresting}}},
        // InputStored
        {{{"input", Field::Id}, {"occupancy", Field::Value}},
         {{"interesting", kFlagInteresting}}},
        // InputDropped
        {{{"input", Field::Id}, {"occupancy", Field::Value}},
         {{"interesting", kFlagInteresting}}},
        // ScheduleDecision
        {{{"seq", Field::Id}, {"job", Field::Value},
          {"occupancy", Field::Extra}, {"es", Field::A},
          {"power", Field::B}, {"options", Field::Options}},
         {{"ibo", kFlagIboPredicted}, {"degraded", kFlagDegraded}}},
        // TaskService
        {{{"seq", Field::Id}, {"task", Field::Value},
          {"option", Field::Extra}, {"es", Field::A},
          {"prob", Field::B}},
         {}},
        // IboOutcome
        {{{"seq", Field::Id}, {"drops", Field::Value}},
         {{"predicted", kFlagIboPredicted}, {"overflowed", kFlagOverflowed},
          {"unfinished", kFlagUnfinished}}},
        // PidUpdate
        {{{"seq", Field::Id}, {"error", Field::A}, {"output", Field::B}},
         {}},
        // TaskComplete
        {{{"seq", Field::Id}, {"task", Field::Value},
          {"option", Field::Extra}, {"observed", Field::A}},
         {}},
        // JobComplete
        {{{"input", Field::Id}, {"job", Field::Value},
          {"seq", Field::Extra}, {"observed", Field::A}},
         {{"classify", kFlagClassify}, {"transmit", kFlagTransmit},
          {"positive", kFlagPositive}, {"hq", kFlagHighQuality},
          {"interesting", kFlagInteresting}}},
        // PowerFailure
        {{{"failures", Field::Value}, {"saves", Field::Extra}}, {}},
        // RechargeInterval
        {{{"ticks", Field::Value}}, {}},
        // BufferOccupancy
        {{{"occupancy", Field::Value}, {"capacity", Field::Extra}}, {}},
        // RunEnd
        {{{"env_events", Field::Id}, {"nominal_interesting", Field::Value},
          {"unprocessed", Field::Extra}, {"env_interesting", Field::A},
          {"sim_ticks", Field::B}},
         {}},
        // FaultInjected
        {{{"seq", Field::Id}, {"class", Field::Value},
          {"until", Field::Extra}, {"magnitude", Field::A}},
         {}},
        // FaultDetected
        {{{"seq", Field::Id}, {"error", Field::A},
          {"threshold", Field::B}},
         {}},
        // FaultMitigated
        {{{"seq", Field::Id}, {"streak", Field::Value},
          {"error", Field::A}, {"output", Field::B}},
         {}},
        // FleetRollup
        {{{"cohort", Field::Id}, {"jobs", Field::Value},
          {"drops", Field::Extra}, {"charge", Field::A},
          {"wasted", Field::B}},
         {}},
        // FleetCheckpoint
        {{{"epoch", Field::Id}, {"bytes", Field::Value},
          {"shards", Field::Extra}},
         {}},
        // FleetRestore
        {{{"epoch", Field::Id}, {"bytes", Field::Value},
          {"shards", Field::Extra}},
         {{"torn", kFlagTornTail}}},
    };
    const auto index = static_cast<std::size_t>(kind);
    if (index >= kEventKindCount)
        util::panic("unknown event kind");
    return kSchemas[index];
}

/** Shortest round-trip decimal form of a double. */
void
appendDouble(std::string &out, double value)
{
    char buffer[64];
    const auto result =
        std::to_chars(buffer, buffer + sizeof(buffer), value);
    out.append(buffer, result.ptr);
}

void
appendInt(std::string &out, long long value)
{
    char buffer[32];
    const auto result =
        std::to_chars(buffer, buffer + sizeof(buffer), value);
    out.append(buffer, result.ptr);
}

void
appendUint(std::string &out, unsigned long long value)
{
    char buffer[32];
    const auto result =
        std::to_chars(buffer, buffer + sizeof(buffer), value);
    out.append(buffer, result.ptr);
}

void
appendField(std::string &out, const Event &event, Field field)
{
    switch (field) {
      case Field::Id: appendUint(out, event.id); return;
      case Field::Value: appendInt(out, event.value); return;
      case Field::Extra: appendInt(out, event.extra); return;
      case Field::A: appendDouble(out, event.a); return;
      case Field::B: appendDouble(out, event.b); return;
      case Field::Options: appendUint(out, event.options); return;
    }
    util::panic("unknown trace field");
}

void
writeJsonl(std::ostream &out, const std::vector<Event> &events,
           std::uint64_t runIndex)
{
    std::string line;
    for (const Event &event : events) {
        line.clear();
        line += "{\"run\":";
        appendUint(line, runIndex);
        line += ",\"t\":";
        appendInt(line, event.tick);
        line += ",\"kind\":\"";
        line += eventKindName(event.kind);
        line += '"';
        const Schema &schema = schemaFor(event.kind);
        for (const FieldDesc &field : schema.fields) {
            line += ",\"";
            line += field.key;
            line += "\":";
            appendField(line, event, field.field);
        }
        for (const FlagDesc &flag : schema.flags) {
            line += ",\"";
            line += flag.key;
            line += "\":";
            line += (event.flags & flag.bit) ? "true" : "false";
        }
        line += "}\n";
        out << line;
    }
}

bool
writeChromeTrace(std::ostream &out, const std::vector<Event> &events,
                 std::uint64_t runIndex, bool first)
{
    // trace_event JSON array format; ts/dur are microseconds and one
    // simulated tick is one millisecond.
    std::string line;
    auto emit = [&](const std::string &body) {
        line.clear();
        if (first)
            first = false;
        else
            line += ",\n";
        line += body;
        out << line;
    };

    auto args = [&](const Event &event) {
        std::string body = "\"args\":{";
        const Schema &schema = schemaFor(event.kind);
        bool firstArg = true;
        for (const FieldDesc &field : schema.fields) {
            if (!firstArg)
                body += ',';
            firstArg = false;
            body += '"';
            body += field.key;
            body += "\":";
            appendField(body, event, field.field);
        }
        for (const FlagDesc &flag : schema.flags) {
            if (!firstArg)
                body += ',';
            firstArg = false;
            body += '"';
            body += flag.key;
            body += "\":";
            body += (event.flags & flag.bit) ? "true" : "false";
        }
        body += '}';
        return body;
    };

    for (const Event &event : events) {
        const long long ts = static_cast<long long>(event.tick) * 1000;
        std::string body;
        switch (event.kind) {
          case EventKind::JobComplete: {
            // Duration slice ending at the completion tick.
            const long long dur =
                static_cast<long long>(event.a * 1e6 + 0.5);
            body = "{\"name\":\"job\",\"ph\":\"X\",\"ts\":";
            appendInt(body, ts - dur);
            body += ",\"dur\":";
            appendInt(body, dur);
            break;
          }
          case EventKind::RechargeInterval: {
            const long long dur =
                static_cast<long long>(event.value) * 1000;
            body = "{\"name\":\"recharge\",\"ph\":\"X\",\"ts\":";
            appendInt(body, ts - dur);
            body += ",\"dur\":";
            appendInt(body, dur);
            break;
          }
          case EventKind::BufferOccupancy: {
            body = "{\"name\":\"buffer\",\"ph\":\"C\",\"ts\":";
            appendInt(body, ts);
            break;
          }
          default: {
            body = "{\"name\":\"";
            body += eventKindName(event.kind);
            body += "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
            appendInt(body, ts);
            break;
          }
        }
        body += ",\"pid\":";
        appendUint(body, runIndex);
        body += ",\"tid\":0,";
        if (event.kind == EventKind::BufferOccupancy) {
            body += "\"args\":{\"occupancy\":";
            appendInt(body, event.value);
            body += '}';
        } else {
            body += args(event);
        }
        body += '}';
        emit(body);
    }
    return first;
}

} // namespace legacy

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();

/** Run indices every comparison writes under: small, above 2^32 and
 *  the largest. */
const std::uint64_t kRunIndices[] = {0, 7, (1ull << 32) + 5, kU64Max};

/** Every member filled at random, whatever the kind serializes.
 *  Magnitudes stay where the Chrome exporter's tick and duration
 *  arithmetic (x1000, x1e6) cannot overflow. */
Event
randomEvent(EventKind kind, util::Rng &rng)
{
    Event event;
    event.kind = kind;
    event.tick = rng.uniformInt(-1000, 10'000'000'000ll);
    event.id = static_cast<std::uint64_t>(
        rng.uniformInt(0, 1'000'000'000'000ll));
    event.value = rng.uniformInt(-1'000'000, 1'000'000'000ll);
    event.extra = rng.uniformInt(-1'000'000, 1'000'000'000ll);
    event.a = kind == EventKind::JobComplete
        ? uniformIn(rng, -1e6, 1e6)
        : uniformIn(rng, -1.0, 1.0) *
            std::pow(10.0, uniformIn(rng, -300.0, 300.0));
    event.b = rng.bernoulli(0.2) ? 0.0 : uniformIn(rng, -1e6, 1e6);
    event.flags = static_cast<std::uint32_t>(rng.uniformInt(0, 0x7ff));
    event.options =
        static_cast<std::uint32_t>(rng.uniformInt(0, 0xffffffffll));
    return event;
}

/** For each kind, one event per subset of the kind's flags, with the
 *  bits outside the schema set too (the writers must ignore them). */
std::vector<Event>
everyFlagSubset()
{
    util::Rng rng(5);
    std::vector<Event> events;
    for (std::size_t k = 0; k < kEventKindCount; ++k) {
        const auto kind = static_cast<EventKind>(k);
        const auto &flags = legacy::schemaFor(kind).flags;
        std::uint32_t schemaBits = 0;
        for (const auto &flag : flags)
            schemaBits |= flag.bit;
        for (std::uint32_t subset = 0; subset < (1u << flags.size());
             ++subset) {
            Event event = randomEvent(kind, rng);
            event.flags = ~schemaBits;
            for (std::size_t i = 0; i < flags.size(); ++i) {
                if (subset & (1u << i))
                    event.flags |= flags[i].bit;
            }
            events.push_back(event);
        }
    }
    return events;
}

/** For each kind, the extremes of every member JSONL can hold. */
std::vector<Event>
extremeEvents()
{
    const double doubles[] = {
        0.0,
        -0.0,
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        2.2250738585072009e-308, // largest denormal
        -2.2250738585072014e-308,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        1.0 / 3.0,
        -1.2345678901234567e-123,
    };
    std::vector<Event> events;
    for (std::size_t k = 0; k < kEventKindCount; ++k) {
        const auto kind = static_cast<EventKind>(k);
        for (std::size_t i = 0; i < std::size(doubles); ++i) {
            Event event;
            event.kind = kind;
            event.tick = i % 2 ? kI64Min : kI64Max;
            event.id = i % 2 ? 0 : kU64Max;
            event.value = i % 2 ? kI64Max : kI64Min;
            event.extra = i % 2 ? kI64Min : kI64Max;
            event.a = doubles[i];
            event.b = doubles[std::size(doubles) - 1 - i];
            event.flags = i % 2 ? 0u : 0xffffffffu;
            event.options = 0xffffffffu;
            events.push_back(event);
        }
    }
    return events;
}

/** Enough random events of every kind to cross many chunk flushes. */
std::vector<Event>
longStream()
{
    util::Rng rng(29);
    std::vector<Event> events;
    for (int i = 0; i < 60'000; ++i) {
        const auto kind = static_cast<EventKind>(
            rng.uniformInt(0, kEventKindCount - 1));
        events.push_back(randomEvent(kind, rng));
    }
    return events;
}

void
expectJsonlIdentical(const std::vector<Event> &events)
{
    for (const std::uint64_t run : kRunIndices) {
        SCOPED_TRACE(run);
        std::ostringstream before;
        std::ostringstream after;
        legacy::writeJsonl(before, events, run);
        writeJsonl(after, events, run);
        ASSERT_EQ(after.str(), before.str());
    }
}

TEST(JsonlWriteDifferential, EveryFlagSubsetOfEveryKindWritesIdentically)
{
    const std::vector<Event> events = everyFlagSubset();
    // 2^flags lines per kind: 4+2+2+4+1+8+1+1+32+1+1+1+1+1+1+1+1+1+2.
    ASSERT_EQ(events.size(), 66u);
    expectJsonlIdentical(events);
}

TEST(JsonlWriteDifferential, ExtremeValuesWriteIdentically)
{
    expectJsonlIdentical(extremeEvents());
}

TEST(JsonlWriteDifferential, StreamsCrossingManyChunksWriteIdentically)
{
    const std::vector<Event> events = longStream();
    std::ostringstream before;
    std::ostringstream after;
    // Runs appended to one stream, as writeTraceFile writes them.
    for (const std::uint64_t run : kRunIndices) {
        legacy::writeJsonl(before, events, run);
        writeJsonl(after, events, run);
    }
    ASSERT_GT(after.str().size(), 16u * 64 * 1024);
    EXPECT_EQ(after.str(), before.str());
}

TEST(JsonlWriteDifferential, EmptyAndSingleEventRunsWriteIdentically)
{
    expectJsonlIdentical({});
    util::Rng rng(3);
    for (std::size_t k = 0; k < kEventKindCount; ++k)
        expectJsonlIdentical(
            {randomEvent(static_cast<EventKind>(k), rng)});
}

/** Both Chrome exporters over the same runs, threading `first`
 *  through as writeTraceFile does. */
void
expectChromeIdentical(const std::vector<Event> &events)
{
    std::ostringstream before;
    std::ostringstream after;
    bool firstBefore = true;
    bool firstAfter = true;
    for (const std::uint64_t run : kRunIndices) {
        firstBefore =
            legacy::writeChromeTrace(before, events, run, firstBefore);
        firstAfter = writeChromeTrace(after, events, run, firstAfter);
        ASSERT_EQ(firstAfter, firstBefore);
    }
    EXPECT_EQ(after.str(), before.str());
}

TEST(ChromeWriteDifferential, EveryFlagSubsetOfEveryKindWritesIdentically)
{
    expectChromeIdentical(everyFlagSubset());
}

TEST(ChromeWriteDifferential, ExtremeValuesWriteIdentically)
{
    // The tick and the duration kinds' value and `a` feed integer
    // arithmetic; the rest are printed as is, so every extreme goes.
    std::vector<Event> events = extremeEvents();
    for (Event &event : events) {
        event.tick = event.tick < 0 ? -1'000'000'000 : 1'000'000'000;
        if (event.kind == EventKind::RechargeInterval)
            event.value = event.value < 0 ? -1'000'000 : 1'000'000;
        if (event.kind == EventKind::JobComplete)
            event.a = 12.5;
    }
    expectChromeIdentical(events);
}

TEST(ChromeWriteDifferential, StreamsCrossingManyChunksWriteIdentically)
{
    expectChromeIdentical(longStream());
}

TEST(ChromeWriteDifferential, EmptyRunsKeepTheFirstFlag)
{
    util::Rng rng(11);
    expectChromeIdentical({});
    expectChromeIdentical({randomEvent(EventKind::JobComplete, rng)});
}

/** Accepts `limit` bytes, then refuses every write, as a full disk
 *  does part-way through a file. */
class FailingBuf final : public std::streambuf
{
  public:
    explicit FailingBuf(std::size_t limit) : left(limit) {}

  protected:
    int_type
    overflow(int_type ch) override
    {
        if (left == 0)
            return traits_type::eof();
        --left;
        return traits_type::not_eof(ch);
    }

    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        const auto taken = std::min<std::streamsize>(
            n, static_cast<std::streamsize>(left));
        left -= static_cast<std::size_t>(taken);
        return taken;
    }

  private:
    std::size_t left;
};

TEST(JsonlWriteDifferential, StreamThatGoesBadMidWriteEndsFailed)
{
    const std::vector<Event> events = longStream();
    FailingBuf jsonlBuf(100'000);
    std::ostream jsonl(&jsonlBuf);
    writeJsonl(jsonl, events, 0);
    EXPECT_TRUE(jsonl.bad());

    FailingBuf chromeBuf(100'000);
    std::ostream chrome(&chromeBuf);
    writeChromeTrace(chrome, events, 0, true);
    EXPECT_TRUE(chrome.bad());
}

TEST(JsonlWriteDifferential, WriteTraceFileFailsByNameOnAFullDevice)
{
    // /dev/full opens fine and fails every write with ENOSPC, so the
    // failure lands part-way through a multi-chunk trace.
    if (std::FILE *probe = std::fopen("/dev/full", "wb"))
        std::fclose(probe);
    else
        GTEST_SKIP() << "no /dev/full";
    std::vector<VectorSink> sinks(2);
    for (const Event &event : longStream()) {
        sinks[0].record(event);
        sinks[1].record(event);
    }
    for (const char *format : {"jsonl", "chrome", "btrace"}) {
        SCOPED_TRACE(format);
        EXPECT_EXIT(writeTraceFile("/dev/full", format, sinks),
                    ::testing::ExitedWithCode(1),
                    "error writing trace output: /dev/full");
    }
}

} // namespace
} // namespace obs
} // namespace quetzal
