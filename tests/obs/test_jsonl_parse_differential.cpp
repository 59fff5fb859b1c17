/**
 * @file
 * Differential test of the JSONL line decoder against the parser it
 * replaced. `legacy::` below is that parser — a two-pass scan into
 * owned std::string pairs with strtod for every double — with one
 * change: it throws its diagnostic instead of exiting.
 * Every input line must give both parsers the same outcome: the same
 * record, doubles compared as bit patterns, or the same diagnostic
 * text. The inputs are the golden traces, writer output for every
 * kind (extreme values included) and seeded mutations of those
 * lines: bit flips, truncation at every byte, reordered, duplicated
 * and unknown keys, injected whitespace, and number tokens on the
 * boundary between std::from_chars and strtod.
 * The decoder walks a line against the writer's literals first and
 * hands anything else to its general scan; writer lines off by one
 * byte or token pin that hand-off for every kind.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_io.hpp"
#include "support/random.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"

#ifndef QUETZAL_OBS_GOLDEN_DIR
#error "build must define QUETZAL_OBS_GOLDEN_DIR"
#endif

namespace quetzal {
namespace obs {
namespace {

namespace legacy {

/** The legacy parser's only change: a diagnostic is thrown, not
 *  passed to util::fatal(). */
struct Rejected
{
    std::string message;
};

[[noreturn]] void
reject(const std::string &message)
{
    throw Rejected{message};
}

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

/** One raw "key":value pair scanned off a JSONL line. */
struct RawPair
{
    std::string key;
    std::string value;
};

std::vector<RawPair>
scanObject(const std::string &line, std::size_t lineNumber)
{
    auto malformed = [&](const char *what) -> void {
        reject(util::msg("trace line ", lineNumber, ": ", what, ": ",
                         line));
    };

    std::vector<RawPair> pairs;
    std::size_t pos = 0;
    auto skipWs = [&] {
        while (pos < line.size() &&
               (line[pos] == ' ' || line[pos] == '\t'))
            ++pos;
    };
    skipWs();
    if (pos >= line.size() || line[pos] != '{')
        malformed("expected '{'");
    ++pos;
    while (true) {
        skipWs();
        if (pos < line.size() && line[pos] == '}')
            break;
        if (pos >= line.size() || line[pos] != '"')
            malformed("expected key");
        const std::size_t keyStart = ++pos;
        while (pos < line.size() && line[pos] != '"')
            ++pos;
        if (pos >= line.size())
            malformed("unterminated key");
        RawPair pair;
        pair.key = line.substr(keyStart, pos - keyStart);
        ++pos;
        skipWs();
        if (pos >= line.size() || line[pos] != ':')
            malformed("expected ':'");
        ++pos;
        skipWs();
        if (pos < line.size() && line[pos] == '"') {
            const std::size_t valueStart = ++pos;
            while (pos < line.size() && line[pos] != '"')
                ++pos;
            if (pos >= line.size())
                malformed("unterminated string");
            pair.value = line.substr(valueStart, pos - valueStart);
            ++pos;
        } else {
            const std::size_t valueStart = pos;
            while (pos < line.size() && line[pos] != ',' &&
                   line[pos] != '}')
                ++pos;
            if (pos >= line.size())
                malformed("unterminated value");
            pair.value = line.substr(valueStart, pos - valueStart);
            if (pair.value.empty())
                malformed("empty value");
        }
        pairs.push_back(std::move(pair));
        skipWs();
        if (pos < line.size() && line[pos] == ',') {
            ++pos;
            continue;
        }
        if (pos < line.size() && line[pos] == '}')
            break;
        malformed("expected ',' or '}'");
    }
    return pairs;
}

double
parseDoubleValue(const std::string &text, std::size_t lineNumber)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        reject(util::msg("trace line ", lineNumber, ": bad number: ",
                         text));
    return value;
}

long long
parseIntValue(const std::string &text, std::size_t lineNumber)
{
    long long value = 0;
    const auto result = std::from_chars(
        text.data(), text.data() + text.size(), value);
    if (result.ec != std::errc() ||
        result.ptr != text.data() + text.size())
        reject(util::msg("trace line ", lineNumber, ": bad integer: ",
                         text));
    return value;
}

bool
parseBoolValue(const std::string &text, std::size_t lineNumber)
{
    if (text == "true")
        return true;
    if (text == "false")
        return false;
    reject(util::msg("trace line ", lineNumber, ": bad bool: ", text));
}

void
assignField(Event &event, Field field, const std::string &text,
            std::size_t lineNumber)
{
    switch (field) {
      case Field::Id:
        event.id = static_cast<std::uint64_t>(
            parseIntValue(text, lineNumber));
        return;
      case Field::Value:
        event.value = parseIntValue(text, lineNumber);
        return;
      case Field::Extra:
        event.extra = parseIntValue(text, lineNumber);
        return;
      case Field::A:
        event.a = parseDoubleValue(text, lineNumber);
        return;
      case Field::B:
        event.b = parseDoubleValue(text, lineNumber);
        return;
      case Field::Options:
        event.options = static_cast<std::uint32_t>(
            parseIntValue(text, lineNumber));
        return;
    }
    util::panic("unknown trace field");
}

const char kSchemaPrefix[] = "# quetzal-trace schema_version=";

void
checkSchemaHeader(const std::string &line, std::size_t lineNumber)
{
    const std::string version =
        line.substr(sizeof(kSchemaPrefix) - 1);
    int major = 0;
    const auto result = std::from_chars(
        version.data(), version.data() + version.size(), major);
    if (result.ec != std::errc() || result.ptr == version.data() ||
        (result.ptr != version.data() + version.size() &&
         *result.ptr != '.'))
        reject(util::msg("trace line ", lineNumber,
                         ": malformed schema_version header: ", line));
    if (major != kTraceSchemaMajor)
        reject(util::msg(
            "trace line ", lineNumber, ": unsupported trace schema_",
            "version ", version, " (this reader supports major ",
            kTraceSchemaMajor, ".x); regenerate the trace or use a ",
            "matching quetzal build"));
}

bool
parseJsonlLine(const std::string &line, std::size_t lineNumber,
               TraceRecord &out)
{
    if (line.rfind(kSchemaPrefix, 0) == 0) {
        checkSchemaHeader(line, lineNumber);
        return false;
    }
    if (line.empty() || line[0] == '#')
        return false;

    const std::vector<RawPair> pairs = scanObject(line, lineNumber);
    TraceRecord record;
    const Schema *schema = nullptr;
    for (const RawPair &pair : pairs) {
        if (pair.key != "kind")
            continue;
        const auto kind = parseEventKind(pair.value);
        if (!kind)
            reject(util::msg("trace line ", lineNumber,
                             ": unknown kind: ", pair.value));
        record.event.kind = *kind;
        schema = &schemaFor(*kind);
    }
    if (schema == nullptr)
        reject(util::msg("trace line ", lineNumber, ": missing kind"));

    for (const RawPair &pair : pairs) {
        if (pair.key == "kind")
            continue;
        if (pair.key == "run") {
            record.run = static_cast<std::uint64_t>(
                parseIntValue(pair.value, lineNumber));
            continue;
        }
        if (pair.key == "t") {
            record.event.tick = parseIntValue(pair.value, lineNumber);
            continue;
        }
        bool known = false;
        for (const FieldDesc &field : schema->fields) {
            if (pair.key == field.key) {
                assignField(record.event, field.field, pair.value,
                            lineNumber);
                known = true;
                break;
            }
        }
        if (known)
            continue;
        for (const FlagDesc &flag : schema->flags) {
            if (pair.key == flag.key) {
                if (parseBoolValue(pair.value, lineNumber))
                    record.event.flags |= flag.bit;
                known = true;
                break;
            }
        }
        if (!known)
            reject(util::msg("trace line ", lineNumber,
                             ": unknown key '", pair.key,
                             "' for kind ",
                             eventKindName(record.event.kind)));
    }
    out = std::move(record);
    return true;
}

} // namespace legacy

/** What one parser made of one line. */
struct Outcome
{
    JsonlLine status;
    TraceRecord record;
    std::string error;
};

/** A record no parser produces, so an `out` a parser was supposed
 *  to leave alone shows up as a mismatch. */
TraceRecord
sentinel()
{
    TraceRecord record;
    record.run = 0xdeadbeef;
    record.event.kind = EventKind::FleetRestore;
    record.event.tick = -77;
    record.event.id = 77;
    record.event.value = -7;
    record.event.extra = 7;
    record.event.a = -0.0;
    record.event.b = 7.5;
    record.event.flags = 0x5a5a;
    record.event.options = 0xa5a5;
    return record;
}

constexpr std::size_t kLineNumber = 42;

Outcome
legacyOutcome(const std::string &line)
{
    Outcome outcome{JsonlLine::Skip, sentinel(), ""};
    try {
        if (legacy::parseJsonlLine(line, kLineNumber, outcome.record))
            outcome.status = JsonlLine::Record;
    } catch (const legacy::Rejected &rejected) {
        outcome.status = JsonlLine::Malformed;
        outcome.error = rejected.message;
    }
    return outcome;
}

Outcome
currentOutcome(const std::string &line)
{
    Outcome outcome{JsonlLine::Skip, sentinel(), ""};
    outcome.status =
        decodeJsonlLine(line, kLineNumber, outcome.record, outcome.error);
    return outcome;
}

std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/** Printable form of a line: control bytes and NULs escaped. */
std::string
escaped(const std::string &line)
{
    std::string out;
    for (const char c : line) {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20 || byte >= 0x7f) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\x%02x", byte);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

/** Tallies what a batch of lines exercised, so a generator that
 *  silently stopped producing accepted (or rejected) lines fails. */
struct Tally
{
    std::size_t records = 0;
    std::size_t skipped = 0;
    std::size_t malformed = 0;
};

::testing::AssertionResult
sameOutcome(const std::string &line, Tally &tally)
{
    const Outcome want = legacyOutcome(line);
    const Outcome got = currentOutcome(line);
    switch (want.status) {
      case JsonlLine::Record: ++tally.records; break;
      case JsonlLine::Skip: ++tally.skipped; break;
      case JsonlLine::Malformed: ++tally.malformed; break;
    }
    const Event &w = want.record.event;
    const Event &g = got.record.event;
    const bool same = want.status == got.status &&
        want.error == got.error && want.record.run == got.record.run &&
        w.kind == g.kind && w.tick == g.tick && w.id == g.id &&
        w.value == g.value && w.extra == g.extra &&
        bitsOf(w.a) == bitsOf(g.a) && bitsOf(w.b) == bitsOf(g.b) &&
        w.flags == g.flags && w.options == g.options;
    if (same)
        return ::testing::AssertionSuccess();
    auto describe = [](const Outcome &o) {
        std::ostringstream out;
        out << "status " << static_cast<int>(o.status) << " run "
            << o.record.run << " kind "
            << static_cast<int>(o.record.event.kind) << " t "
            << o.record.event.tick << " id " << o.record.event.id
            << " value " << o.record.event.value << " extra "
            << o.record.event.extra << " a bits " << std::hex
            << bitsOf(o.record.event.a) << " b bits "
            << bitsOf(o.record.event.b) << " flags "
            << o.record.event.flags << " options "
            << o.record.event.options << std::dec << " error '"
            << escaped(o.error) << "'";
        return out.str();
    };
    return ::testing::AssertionFailure()
        << "line: " << escaped(line) << "\n  legacy:  " << describe(want)
        << "\n  current: " << describe(got);
}

/** Check every line; stop after a handful of mismatches. */
Tally
expectAllSame(const std::vector<std::string> &lines)
{
    Tally tally;
    int failures = 0;
    for (const std::string &line : lines) {
        const auto result = sameOutcome(line, tally);
        if (!result) {
            ADD_FAILURE() << result.message();
            if (++failures >= 10)
                break;
        }
    }
    return tally;
}

std::vector<std::string>
goldenLines()
{
    std::vector<std::string> lines;
    for (const auto &entry : std::filesystem::directory_iterator(
             QUETZAL_OBS_GOLDEN_DIR)) {
        if (entry.path().extension() != ".jsonl")
            continue;
        std::ifstream in(entry.path());
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    return lines;
}

/** Split writeJsonl() output into lines (no trailing newlines). */
std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/** Every member filled at random, whatever the kind serializes. */
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
    event.a = uniformIn(rng, -1.0, 1.0) *
        std::pow(10.0, uniformIn(rng, -300.0, 300.0));
    event.b = rng.bernoulli(0.2) ? 0.0 : uniformIn(rng, -1e6, 1e6);
    event.flags = static_cast<std::uint32_t>(rng.uniformInt(0, 0x7ff));
    event.options =
        static_cast<std::uint32_t>(rng.uniformInt(0, 0xffffffffll));
    return event;
}

/** Writer output for every kind: random events plus the extremes
 *  of every member (non-finite doubles and out-of-range ids too). */
std::vector<std::string>
writerLines()
{
    util::Rng rng(17);
    std::vector<Event> events;
    const double extremes[] = {
        0.0,
        -0.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        0.1,
        1.0 / 3.0,
    };
    for (std::size_t k = 0; k < kEventKindCount; ++k) {
        const auto kind = static_cast<EventKind>(k);
        for (int i = 0; i < 20; ++i)
            events.push_back(randomEvent(kind, rng));
        for (std::size_t i = 0; i < std::size(extremes); ++i) {
            Event event = randomEvent(kind, rng);
            event.a = extremes[i];
            event.b = extremes[std::size(extremes) - 1 - i];
            events.push_back(event);
        }
        Event high;
        high.kind = kind;
        high.tick = std::numeric_limits<std::int64_t>::max();
        high.id = std::numeric_limits<std::uint64_t>::max();
        high.value = std::numeric_limits<std::int64_t>::min();
        high.extra = std::numeric_limits<std::int64_t>::max();
        high.flags = 0xffffffffu;
        high.options = 0xffffffffu;
        events.push_back(high);
    }
    std::ostringstream out;
    writeJsonlHeader(out);
    writeJsonl(out, events, 3);
    writeJsonl(out, {events.front()},
               std::numeric_limits<std::uint64_t>::max());
    return splitLines(out.str());
}

/** The `"key":value` pieces of one writer line, braces stripped. */
std::vector<std::string>
splitPairs(const std::string &line)
{
    std::vector<std::string> pairs;
    const std::string body = line.substr(1, line.size() - 2);
    std::size_t start = 0;
    while (start <= body.size()) {
        const std::size_t comma = std::min(body.find(',', start),
                                           body.size());
        pairs.push_back(body.substr(start, comma - start));
        start = comma + 1;
    }
    return pairs;
}

std::string
joinPairs(const std::vector<std::string> &pairs)
{
    std::string line = "{";
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        if (i > 0)
            line += ',';
        line += pairs[i];
    }
    return line + "}";
}

/** A few writer lines per kind: the base set the mutations start
 *  from. */
std::vector<std::string>
baseLines()
{
    std::vector<std::string> base;
    std::vector<int> perKind(kEventKindCount, 0);
    for (const std::string &line : writerLines()) {
        if (line.empty() || line[0] != '{')
            continue;
        TraceRecord record;
        std::string error;
        if (decodeJsonlLine(line, 1, record, error) != JsonlLine::Record)
            continue;
        int &count = perKind[static_cast<std::size_t>(record.event.kind)];
        if (count++ < 3)
            base.push_back(line);
    }
    return base;
}

TEST(JsonlParseDifferential, GoldenTracesDecodeIdentically)
{
    const std::vector<std::string> lines = goldenLines();
    ASSERT_GT(lines.size(), 1000u);
    const Tally tally = expectAllSame(lines);
    EXPECT_GT(tally.records, 1000u);
    EXPECT_GE(tally.skipped, 2u); // one schema header per file
    EXPECT_EQ(tally.malformed, 0u);
}

TEST(JsonlParseDifferential, WriterOutputForEveryKindDecodesIdentically)
{
    const std::vector<std::string> lines = writerLines();
    const Tally tally = expectAllSame(lines);
    EXPECT_GT(tally.records, kEventKindCount * 30);
    // The uint64 max id and run do not fit the reader's long long.
    EXPECT_GT(tally.malformed, 0u);

    std::vector<bool> seen(kEventKindCount, false);
    for (const std::string &line : lines) {
        TraceRecord record;
        std::string error;
        if (decodeJsonlLine(line, 1, record, error) == JsonlLine::Record)
            seen[static_cast<std::size_t>(record.event.kind)] = true;
    }
    EXPECT_EQ(std::count(seen.begin(), seen.end(), true),
              static_cast<long>(kEventKindCount));
}

TEST(JsonlParseDifferential, BitFlipsDecodeIdentically)
{
    util::Rng rng(101);
    std::vector<std::string> lines;
    std::vector<std::string> sources = baseLines();
    const std::vector<std::string> golden = goldenLines();
    for (std::size_t i = 0; i < golden.size(); i += 97)
        sources.push_back(golden[i]);
    for (const std::string &source : sources) {
        for (int flip = 0; flip < 40; ++flip) {
            std::string line = source;
            const int bits = flip < 30 ? 1 : 2;
            for (int b = 0; b < bits; ++b) {
                const auto pos = static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(line.size()) - 1));
                line[pos] = static_cast<char>(
                    line[pos] ^ (1 << rng.uniformInt(0, 7)));
            }
            lines.push_back(line);
        }
    }
    const Tally tally = expectAllSame(lines);
    EXPECT_GT(tally.records, 0u);
    EXPECT_GT(tally.malformed, 0u);
}

TEST(JsonlParseDifferential, TruncationAtEveryByteDecodesIdentically)
{
    std::vector<std::string> sources = baseLines();
    sources.resize(std::min<std::size_t>(sources.size(), 12));
    sources.push_back("# quetzal-trace schema_version=1.0");
    std::vector<std::string> lines;
    for (const std::string &source : sources) {
        for (std::size_t cut = 0; cut <= source.size(); ++cut)
            lines.push_back(source.substr(0, cut));
    }
    const Tally tally = expectAllSame(lines);
    EXPECT_GT(tally.records, 0u); // cut after '}' or inside a number
    EXPECT_GT(tally.skipped, 0u); // the empty line, the '#' prefixes
    EXPECT_GT(tally.malformed, 0u);
}

TEST(JsonlParseDifferential, ReorderedDuplicatedAndUnknownKeysDecodeIdentically)
{
    util::Rng rng(202);
    const std::vector<std::string> sources = baseLines();
    const std::vector<std::string> foreign = {
        "\"bogus\":1", "\"run\":9", "\"t\":-3", "\"kind\":\"recharge\"",
        "\"kind\":\"warp\"", "\"seq\":4", "\"interesting\":true",
        "\"es\":2.5", "\"torn\":false", "\"\":1", "\"ticks\":\"12\"",
        "\"kind\":capture"};
    std::vector<std::string> lines;
    for (const std::string &source : sources) {
        const std::vector<std::string> pairs = splitPairs(source);
        for (int round = 0; round < 12; ++round) {
            std::vector<std::string> shuffled = pairs;
            for (std::size_t i = shuffled.size(); i > 1; --i)
                std::swap(shuffled[i - 1],
                          shuffled[static_cast<std::size_t>(rng.uniformInt(
                              0, static_cast<std::int64_t>(i) - 1))]);
            lines.push_back(joinPairs(shuffled));

            std::vector<std::string> duplicated = pairs;
            const auto from = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(pairs.size()) - 1));
            const auto to = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(pairs.size())));
            duplicated.insert(duplicated.begin() +
                                  static_cast<std::ptrdiff_t>(to),
                              pairs[from]);
            lines.push_back(joinPairs(duplicated));

            std::vector<std::string> extended = pairs;
            const auto at = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(pairs.size())));
            extended.insert(
                extended.begin() + static_cast<std::ptrdiff_t>(at),
                foreign[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(foreign.size()) - 1))]);
            lines.push_back(joinPairs(extended));
        }
        // A duplicated flag: true then false keeps the bit set.
        for (const std::string &pair : pairs) {
            if (pair.ends_with(":true") || pair.ends_with(":false")) {
                std::vector<std::string> both = pairs;
                const std::string key = pair.substr(0, pair.find(':'));
                both.push_back(key + ":true");
                both.push_back(key + ":false");
                lines.push_back(joinPairs(both));
            }
        }
    }
    const Tally tally = expectAllSame(lines);
    EXPECT_GT(tally.records, 0u);
    EXPECT_GT(tally.malformed, 0u);
}

TEST(JsonlParseDifferential, InjectedWhitespaceDecodesIdentically)
{
    util::Rng rng(303);
    const std::string blanks[] = {" ", "\t", "  \t", "\r", "\v", "\f",
                                  "\n", std::string(1, '\0')};
    std::vector<std::string> lines;
    for (const std::string &source : baseLines()) {
        // At every byte, one blank at a time.
        for (std::size_t pos = 0; pos <= source.size(); ++pos) {
            const std::string &blank =
                blanks[static_cast<std::size_t>(rng.uniformInt(0, 2))];
            lines.push_back(source.substr(0, pos) + blank +
                            source.substr(pos));
        }
        // Several blanks, any kind, at random places.
        for (int round = 0; round < 20; ++round) {
            std::string line = source;
            for (int n = 0; n < 3; ++n) {
                const auto pos = static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(line.size())));
                line.insert(pos, blanks[static_cast<std::size_t>(
                                     rng.uniformInt(0, 7))]);
            }
            lines.push_back(line);
        }
    }
    const Tally tally = expectAllSame(lines);
    EXPECT_GT(tally.records, 0u);
    EXPECT_GT(tally.malformed, 0u);
}

/** Number tokens on both sides of the from_chars/strtod boundary,
 *  and bool near-misses. Each one replaces one value of an otherwise
 *  writer-shaped line, so it also pins where the writer-literal route
 *  hands the line to the general one. */
const std::vector<std::string> &
numberTokens()
{
    static const std::vector<std::string> tokens = {
        "+1", "0x1p3", "0X1P3", "-0x1.8p1", "1e400", "-1e400", "2e-324",
        "-2e-324", "2.5e-324", "5e-324", "1e-320", "inf", "-inf", "INF",
        "infinity", "-Infinity", "infinit", "nan", "-nan", "NaN",
        "nan(123)", "-nan(123)", "nan(0x7b)", "nan()", "nan(", "nan(1 2)",
        "123456789012345678901234567890",
        "-123456789012345678901234567890",
        "0.123456789012345678901234567890",
        "1.000000000000000000000000000001",
        "9007199254740993", "9007199254740992.5000000000000000001",
        "2.2250738585072011e-308", "2.2250738585072012e-308",
        "1.7976931348623157e308", "1.7976931348623158e308",
        "1.7976931348623159e308", "1e99999999999999999999",
        "1e-99999999999999999999", "0", "-0", "00", "01", "-01", "0.0",
        ".5", "5.", ".", "-", "+", "e5", "1e", "1e+", "1e-", "1e+5",
        "1E5", "1.5e+0", " 1.5", "1.5 ", "1.5\t", "\t1.5", "\v1.5",
        "\f1", "\r1", "1\r", "1.5\n", std::string("1\0", 2),
        std::string("1.5\0x", 5), std::string("\0", 1), "1_000", "1,5",
        "0x", "1p3", "--1", "+-1", "9223372036854775807",
        "9223372036854775808", "-9223372036854775808",
        "-9223372036854775809", "18446744073709551615", "4294967295",
        "4294967296", "-1", "true", "false", "tru", "TRUE", "truex",
        "fals", "\"2.5\"", "\"7\"", "\"\"", "\"nan(9)\"", "1.5\"",
        "\"1.5"};
    return tokens;
}

TEST(JsonlParseDifferential, NumberTokensDecodeIdentically)
{
    std::vector<std::string> lines;
    for (const std::string &source : baseLines()) {
        const std::vector<std::string> pairs = splitPairs(source);
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            const std::size_t colon = pairs[i].find(':');
            const std::string key = pairs[i].substr(0, colon);
            if (key == "\"kind\"")
                continue;
            for (const std::string &token : numberTokens()) {
                std::vector<std::string> mutated = pairs;
                mutated[i] = key + ":" + token;
                lines.push_back(joinPairs(mutated));
            }
        }
    }
    const Tally tally = expectAllSame(lines);
    EXPECT_GT(tally.records, 0u);
    EXPECT_GT(tally.malformed, 0u);
}

TEST(JsonlParseDifferential, WriterShapedNearMissesDecodeIdentically)
{
    std::vector<std::string> lines;
    for (const std::string &source : baseLines()) {
        const std::string body = source.substr(0, source.size() - 1);
        lines.push_back(body);
        for (const char *tail : {"x", "}", " ", "\r", ",\"bogus\":1}", "{}"})
            lines.push_back(source + tail);
        lines.push_back(body + "\r}");
        lines.push_back(body + " }");
        for (std::size_t pos = source.find(','); pos != std::string::npos;
             pos = source.find(',', pos + 1))
            lines.push_back(source.substr(0, pos + 1) + " " +
                            source.substr(pos + 1));

        // "run", "t" and "kind" lead every writer line.
        std::vector<std::string> pairs = splitPairs(source);
        std::swap(pairs[0], pairs[1]);
        lines.push_back(joinPairs(pairs));
        std::swap(pairs[0], pairs[1]);
        std::rotate(pairs.begin() + 2, pairs.begin() + 3, pairs.end());
        lines.push_back(joinPairs(pairs));
        std::rotate(pairs.begin(), pairs.end() - 1, pairs.end());
        lines.push_back(joinPairs(pairs));
    }
    const Tally tally = expectAllSame(lines);
    EXPECT_GT(tally.records, 0u);
    EXPECT_GT(tally.malformed, 0u);
}

TEST(JsonlParseDifferential, KindAndHeaderVariantsDecodeIdentically)
{
    std::vector<std::string> lines;
    const std::string kinds[] = {
        "\"capture\"", "capture", "\"Capture\"", "\"capture \"",
        " \"capture\"", "\"\"", "\"capture\"x", std::string("\"capture\0\"", 10),
        "\"job_done\"", "\"fleet_restore\"", "\"warp\"", "1"};
    for (const std::string &kind : kinds) {
        lines.push_back("{\"run\":0,\"t\":1,\"kind\":" + kind +
                        ",\"input\":5,\"different\":true,"
                        "\"interesting\":false}");
        lines.push_back("{\"kind\":" + kind + "}");
    }
    const std::string headers[] = {
        "1.0", "1", "1.", "1.9", "1x", "01.0", " 1.0", "+1.0", "-1.0",
        "2.0", "0.9", "", "squid", "99999999999999999999.0", "1.0 extra",
        "1..0", std::string("1\0", 2)};
    for (const std::string &version : headers)
        lines.push_back("# quetzal-trace schema_version=" + version);
    lines.push_back("# quetzal-trace schema_version");
    lines.push_back("#");
    lines.push_back("");
    lines.push_back(" ");
    lines.push_back("{}");
    lines.push_back("{\"run\":0}  trailing bytes");
    lines.push_back("{\"run\":0,\"t\":1,\"kind\":\"recharge\","
                    "\"ticks\":9} trailing");
    lines.push_back(" \t{ \"run\" : 0 , \"t\" :1,\"kind\":\"recharge\","
                    "\"ticks\":9 }");
    const Tally tally = expectAllSame(lines);
    EXPECT_GT(tally.records, 0u);
    EXPECT_GT(tally.skipped, 0u);
    EXPECT_GT(tally.malformed, 0u);
}

TEST(JsonlParseDifferential, StrtodOnlyTokensKeepStrtodBits)
{
    // The cases where from_chars alone would differ from strtod.
    auto decodeA = [](const std::string &token) {
        TraceRecord record;
        std::string error;
        const JsonlLine status = decodeJsonlLine(
            "{\"run\":0,\"t\":1,\"kind\":\"pid\",\"seq\":2,\"error\":" +
                token + ",\"output\":0}",
            1, record, error);
        EXPECT_EQ(status, JsonlLine::Record) << token << ": " << error;
        return bitsOf(record.event.a);
    };
    EXPECT_EQ(decodeA("nan(123)"), 0x7ff800000000007bull);
    EXPECT_EQ(decodeA("+1"), bitsOf(1.0));
    EXPECT_EQ(decodeA("0x1p3"), bitsOf(8.0));
    EXPECT_EQ(decodeA("1e400"),
              bitsOf(std::numeric_limits<double>::infinity()));
    EXPECT_EQ(decodeA("2e-324"), bitsOf(0.0));
}

} // namespace
} // namespace obs
} // namespace quetzal
