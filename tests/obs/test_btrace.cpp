/**
 * @file
 * quetzal-btrace-v1 unit tests (DESIGN.md section 16): bit-exact
 * round-trips through the writer and the streaming cursor, chunk
 * sealing across run boundaries and the 64 KiB target, and the
 * corruption paths — truncation, CRC mismatch, schema major-version
 * skew, overflowing ticks and over-wide flags are all rejected with
 * a diagnostic instead of decoding garbage.
 *
 * The format-equivalence test at the bottom is the satellite
 * contract behind tools/trace_stat: a run serialized as JSONL and as
 * btrace must stream back the *same record sequence* through
 * openTraceCursor, so every statistic computed over one format is
 * computed over the other.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/btrace.hpp"
#include "obs/event.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_cursor.hpp"
#include "obs/trace_io.hpp"
#include "obs/trace_sink.hpp"
#include "sim/experiment.hpp"
#include "util/wire.hpp"

namespace quetzal {
namespace obs {
namespace {

/** One event exercising every field shape the mask can carry. */
Event
fullEvent(Tick tick)
{
    Event event;
    event.kind = EventKind::ScheduleDecision;
    event.tick = tick;
    event.id = 0xdeadbeefcafeull;
    event.value = -42;
    event.extra = 1234567890123ll;
    event.a = -0.3250000000000001;
    event.b = 1e-17;
    event.flags = kFlagInteresting | kFlagDegraded;
    event.options = 0x21;
    return event;
}

/** A stream with sparse masks, zero fields and tick plateaus. */
std::vector<Event>
mixedEvents()
{
    std::vector<Event> events;
    Event zero; // everything default: the minimal two-byte record
    zero.tick = 0;
    events.push_back(zero);
    events.push_back(fullEvent(0)); // same tick: zero delta
    Event sparse;
    sparse.kind = EventKind::BufferOccupancy;
    sparse.tick = 999983;
    sparse.value = 3;
    sparse.extra = 8;
    events.push_back(sparse);
    Event negative;
    negative.kind = EventKind::RunEnd;
    negative.tick = 7; // large negative delta within the chunk
    negative.a = -1.5;
    events.push_back(negative);
    return events;
}

std::string
writeBtrace(const std::vector<std::vector<Event>> &runs)
{
    std::ostringstream out;
    BtraceWriter writer(out);
    std::size_t events = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        writer.writeRun(runs[i], i);
        events += runs[i].size();
    }
    writer.finish();
    EXPECT_EQ(writer.eventCount(), events);
    return out.str();
}

std::vector<TraceRecord>
readBtrace(const std::string &bytes)
{
    std::istringstream in(bytes);
    BtraceTraceCursor cursor(in, "<test>");
    std::vector<TraceRecord> records;
    TraceRecord record;
    while (cursor.next(record))
        records.push_back(record);
    return records;
}

void
expectSameEvent(const Event &want, const Event &got)
{
    EXPECT_EQ(want.kind, got.kind);
    EXPECT_EQ(want.tick, got.tick);
    EXPECT_EQ(want.id, got.id);
    EXPECT_EQ(want.value, got.value);
    EXPECT_EQ(want.extra, got.extra);
    // Bit-exact, not approximately-equal: doubles travel as raw
    // IEEE-754 words.
    EXPECT_EQ(want.a, got.a);
    EXPECT_EQ(want.b, got.b);
    EXPECT_EQ(want.flags, got.flags);
    EXPECT_EQ(want.options, got.options);
}

TEST(Btrace, RoundTripsEveryFieldShape)
{
    const std::vector<Event> events = mixedEvents();
    const std::string bytes = writeBtrace({events});
    EXPECT_TRUE(looksLikeBtrace(bytes));

    const std::vector<TraceRecord> records = readBtrace(bytes);
    ASSERT_EQ(records.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(records[i].run, 0u);
        expectSameEvent(events[i], records[i].event);
    }
}

TEST(Btrace, MultiRunFilesKeepRunIndicesAndOrder)
{
    std::vector<std::vector<Event>> runs(3);
    for (std::size_t run = 0; run < runs.size(); ++run) {
        for (Tick t = 0; t < 5; ++t) {
            Event event = fullEvent(t * 1000);
            event.id = run * 100 + static_cast<std::uint64_t>(t);
            runs[run].push_back(event);
        }
    }
    runs[1].clear(); // an empty run in the middle emits no chunk

    const std::vector<TraceRecord> records =
        readBtrace(writeBtrace(runs));
    ASSERT_EQ(records.size(), 10u);
    for (std::size_t i = 0; i < records.size(); ++i) {
        const std::uint64_t run = i < 5 ? 0 : 2;
        EXPECT_EQ(records[i].run, run);
        EXPECT_EQ(records[i].event.id,
                  run * 100 + static_cast<std::uint64_t>(i % 5));
    }
}

TEST(Btrace, ZeroEventFileAndZeroEventRunDecodeCleanly)
{
    // No runs at all: header + footer only.
    const std::string empty = writeBtrace({});
    EXPECT_EQ(empty.size(), kBtraceHeaderSize + 8);
    EXPECT_TRUE(readBtrace(empty).empty());

    // One run with no events.
    EXPECT_TRUE(readBtrace(writeBtrace({{}})).empty());
}

TEST(Btrace, LongStreamsSealMultipleChunks)
{
    // Enough full-mask records to cross the 64 KiB chunk target
    // several times; every tick and payload must survive resealing.
    std::vector<Event> events;
    for (Tick t = 0; t < 6000; ++t)
        events.push_back(fullEvent(t * 37));

    const std::string bytes = writeBtrace({events});
    const std::vector<TraceRecord> records = readBtrace(bytes);
    ASSERT_EQ(records.size(), events.size());
    for (std::size_t i = 0; i < events.size(); i += 977)
        expectSameEvent(events[i], records[i].event);
    expectSameEvent(events.back(), records.back().event);
}

// --- Corruption paths --------------------------------------------------

using BtraceDeathTest = ::testing::Test;

TEST(BtraceDeathTest, TruncatedFileIsFatal)
{
    const std::string bytes = writeBtrace({mixedEvents()});
    // Cut inside the last chunk's payload, removing the footer too.
    const std::string truncated = bytes.substr(0, bytes.size() - 12);
    EXPECT_DEATH(readBtrace(truncated), "truncated");
}

TEST(BtraceDeathTest, MissingFooterIsFatal)
{
    const std::string bytes = writeBtrace({mixedEvents()});
    // Remove exactly the 8-byte footer: chunks are intact, but the
    // end of stream is not clean.
    const std::string headless = bytes.substr(0, bytes.size() - 8);
    EXPECT_DEATH(readBtrace(headless), "truncated");
}

TEST(BtraceDeathTest, CorruptChunkFailsTheCrc)
{
    std::string bytes = writeBtrace({mixedEvents()});
    // Flip one payload byte past the first chunk's 8-byte frame.
    bytes[kBtraceHeaderSize + 8 + 2] ^= 0x01;
    EXPECT_DEATH(readBtrace(bytes), "CRC");
}

TEST(BtraceDeathTest, FutureSchemaMajorIsRejected)
{
    std::string bytes = writeBtrace({mixedEvents()});
    bytes[4] = static_cast<char>(kBtraceMajor + 1);
    EXPECT_DEATH(readBtrace(bytes), "schema");
}

TEST(Btrace, DecodePayloadReportsMalformedInputWithoutDying)
{
    BtraceChunk chunk;
    std::string error;
    // Varint runs off the end of the payload.
    EXPECT_FALSE(decodeBtracePayload(std::string("\xff\xff", 2), chunk,
                                     error));
    EXPECT_FALSE(error.empty());

    // Record count promises more records than the payload holds.
    std::string claims;
    claims.push_back('\x00'); // run 0
    claims.push_back('\x05'); // 5 events, then nothing
    error.clear();
    EXPECT_FALSE(decodeBtracePayload(claims, chunk, error));
    EXPECT_FALSE(error.empty());
}

/** A one-run payload of field-less records with these tick deltas. */
std::string
payloadWithDeltas(std::initializer_list<std::int64_t> deltas)
{
    std::string payload;
    util::wire::putVarint(payload, 0);
    util::wire::putVarint(payload, deltas.size());
    for (const std::int64_t delta : deltas) {
        payload.push_back(static_cast<char>(EventKind::RunEnd));
        payload.push_back('\0'); // field mask: no fields
        util::wire::putZigzag(payload, delta);
    }
    return payload;
}

TEST(Btrace, DecodePayloadRejectsTicksThatOverflow)
{
    // Deltas whose running sum leaves the int64 tick range: adding
    // them unchecked would be signed overflow, not a decoded tick.
    const std::pair<std::int64_t, std::int64_t> cases[] = {
        {INT64_MAX, 1}, {INT64_MIN, -1}};
    for (const auto &[first, second] : cases) {
        BtraceChunk chunk;
        std::string error;
        EXPECT_FALSE(decodeBtracePayload(payloadWithDeltas({first, second}),
                                         chunk, error));
        EXPECT_NE(error.find("overflows the tick range"),
                  std::string::npos)
            << error;
    }
    // The extremes themselves are valid ticks.
    BtraceChunk chunk;
    std::string error;
    ASSERT_TRUE(decodeBtracePayload(payloadWithDeltas({INT64_MAX, 0}),
                                    chunk, error))
        << error;
    EXPECT_EQ(chunk.events.back().tick, INT64_MAX);
}

TEST(Btrace, DecodePayloadRejectsFlagsAndOptionsWiderThan32Bits)
{
    // Mask bits 5 and 6 carry flags and options, both uint32 Event
    // members; a wider varint must not be silently truncated.
    for (const std::uint8_t maskBit : {1u << 5, 1u << 6}) {
        for (const std::uint64_t value :
             {std::uint64_t{UINT32_MAX}, std::uint64_t{UINT32_MAX} + 1}) {
            std::string payload;
            util::wire::putVarint(payload, 0);
            util::wire::putVarint(payload, 1);
            payload.push_back(static_cast<char>(EventKind::RunEnd));
            payload.push_back(static_cast<char>(maskBit));
            util::wire::putZigzag(payload, 0);
            util::wire::putVarint(payload, value);

            BtraceChunk chunk;
            std::string error;
            const bool decoded =
                decodeBtracePayload(payload, chunk, error);
            EXPECT_EQ(decoded, value <= UINT32_MAX) << error;
            if (!decoded) {
                EXPECT_NE(error.find("exceed 32 bits"),
                          std::string::npos)
                    << error;
            }
        }
    }
}

// --- Format equivalence (the trace_stat satellite) ---------------------

/** Serialize one traced run both ways; stream both back; compare. */
TEST(Btrace, JsonlAndBtraceCursorsYieldTheSameRecords)
{
    sim::ExperimentConfig config;
    config.environment = trace::EnvironmentPreset::Msp430Short;
    config.eventCount = 3;
    config.seed = 17;
    config.sim.bufferCapacity = 6;
    config.sim.drainTicks = 10 * kTicksPerSecond;
    config.obsLevel = ObsLevel::Full;
    VectorSink sink;
    config.obsSink = &sink;
    (void)sim::runExperiment(config);
    ASSERT_FALSE(sink.events().empty());

    std::ostringstream jsonl;
    writeJsonlHeader(jsonl);
    writeJsonl(jsonl, sink.events(), 0);
    const std::string binary = writeBtrace({sink.events()});

    std::istringstream jsonlIn(jsonl.str());
    std::istringstream binaryIn(binary);
    const auto jsonlCursor = openTraceCursor(jsonlIn, "<jsonl>");
    const auto binaryCursor = openTraceCursor(binaryIn, "<btrace>");
    ASSERT_EQ(jsonlCursor->format(), TraceFormat::Jsonl);
    ASSERT_EQ(binaryCursor->format(), TraceFormat::Btrace);

    TraceRecord fromJsonl;
    TraceRecord fromBinary;
    std::size_t count = 0;
    while (true) {
        const bool moreJsonl = jsonlCursor->next(fromJsonl);
        const bool moreBinary = binaryCursor->next(fromBinary);
        ASSERT_EQ(moreJsonl, moreBinary)
            << "formats disagree on stream length after " << count
            << " records";
        if (!moreJsonl)
            break;
        EXPECT_EQ(fromJsonl.run, fromBinary.run);
        expectSameEvent(fromJsonl.event, fromBinary.event);
        ++count;
    }
    EXPECT_EQ(count, sink.events().size());
}

/**
 * The end-to-end form of the same contract: replay both
 * serializations through MetricsRegistry — exactly what trace_stat
 * does — and require the printed summaries to match to the byte.
 */
TEST(Btrace, StatSummariesMatchAcrossFormats)
{
    sim::ExperimentConfig config;
    config.environment = trace::EnvironmentPreset::Msp430Short;
    config.eventCount = 3;
    config.seed = 17;
    config.sim.bufferCapacity = 6;
    config.sim.drainTicks = 10 * kTicksPerSecond;
    config.obsLevel = ObsLevel::Full;
    VectorSink sink;
    config.obsSink = &sink;
    (void)sim::runExperiment(config);
    ASSERT_FALSE(sink.events().empty());

    std::ostringstream jsonl;
    writeJsonlHeader(jsonl);
    writeJsonl(jsonl, sink.events(), 0);
    const std::string binary = writeBtrace({sink.events()});

    const auto summarize = [](std::istream &in, const char *label) {
        const auto cursor = openTraceCursor(in, label);
        MetricsRegistry registry;
        TraceRecord record;
        while (cursor->next(record))
            registry.record(record.event);
        std::ostringstream out;
        registry.printSummary(out, "run 0");
        return out.str();
    };
    std::istringstream jsonlIn(jsonl.str());
    std::istringstream binaryIn(binary);
    const std::string fromJsonl = summarize(jsonlIn, "<jsonl>");
    const std::string fromBinary = summarize(binaryIn, "<btrace>");
    ASSERT_FALSE(fromJsonl.empty());
    EXPECT_EQ(fromJsonl, fromBinary);
}

} // namespace
} // namespace obs
} // namespace quetzal
