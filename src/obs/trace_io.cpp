#include "obs/trace_io.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <ostream>
#include <string>

#include "obs/trace_cursor.hpp"
#include "util/logging.hpp"
#include "util/small_vec.hpp"

namespace quetzal {
namespace obs {

namespace {

/** Which POD member a JSON key maps to. */
enum class Field : std::uint8_t { Id, Value, Extra, A, B, Options };

struct FieldDesc
{
    std::string_view key;
    Field field;
};

struct FlagDesc
{
    std::string_view key;
    std::uint32_t bit;
};

/**
 * Per-kind serialization schema. The writer emits exactly these keys
 * in exactly this order; the reader accepts exactly these keys. One
 * table serves both directions, so they cannot drift apart.
 */
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

/** One raw "key":value pair scanned off a JSONL line: two views
 *  into the line being decoded. */
struct RawPair
{
    std::string_view key;
    std::string_view value;
};

/** Every line the writer emits has at most 12 pairs (job_done), so
 *  the pairs of a well-formed line never leave the inline buffer. */
using RawPairs = util::SmallVec<RawPair, 16>;

/** Diagnostic sink for one line: fail() fills the caller's error
 *  string with "trace line N: ..." and returns false. */
struct Diag
{
    std::size_t lineNumber;
    std::string &error;

    template <typename... Args>
    bool
    fail(const Args &...args)
    {
        error = util::msg("trace line ", lineNumber, ": ", args...);
        return false;
    }
};

/**
 * Scan a flat JSON object into raw pairs. Only the value shapes the
 * writer emits are accepted: numbers, true/false, and one quoted
 * string (the kind). Bytes after the closing '}' are ignored.
 */
bool
scanObject(std::string_view line, RawPairs &pairs, Diag &diag)
{
    auto malformed = [&](const char *what) {
        return diag.fail(what, ": ", line);
    };

    std::size_t pos = 0;
    auto skipWs = [&] {
        while (pos < line.size() &&
               (line[pos] == ' ' || line[pos] == '\t'))
            ++pos;
    };
    skipWs();
    if (pos >= line.size() || line[pos] != '{')
        return malformed("expected '{'");
    ++pos;
    while (true) {
        skipWs();
        if (pos < line.size() && line[pos] == '}')
            return true;
        if (pos >= line.size() || line[pos] != '"')
            return malformed("expected key");
        const std::size_t keyStart = ++pos;
        pos = line.find('"', pos);
        if (pos == std::string_view::npos)
            return malformed("unterminated key");
        RawPair pair;
        pair.key = line.substr(keyStart, pos - keyStart);
        ++pos;
        skipWs();
        if (pos >= line.size() || line[pos] != ':')
            return malformed("expected ':'");
        ++pos;
        skipWs();
        if (pos < line.size() && line[pos] == '"') {
            const std::size_t valueStart = ++pos;
            pos = line.find('"', pos);
            if (pos == std::string_view::npos)
                return malformed("unterminated string");
            pair.value = line.substr(valueStart, pos - valueStart);
            ++pos;
        } else {
            const std::size_t valueStart = pos;
            while (pos < line.size() && line[pos] != ',' &&
                   line[pos] != '}')
                ++pos;
            if (pos >= line.size())
                return malformed("unterminated value");
            pair.value = line.substr(valueStart, pos - valueStart);
            if (pair.value.empty())
                return malformed("empty value");
        }
        pairs.push_back(pair);
        skipWs();
        if (pos < line.size() && line[pos] == ',') {
            ++pos;
            continue;
        }
        if (pos < line.size() && line[pos] == '}')
            return true;
        return malformed("expected ',' or '}'");
    }
}

/**
 * Decode a double to exactly the bits strtod gives. std::from_chars
 * is correctly rounded, as glibc's strtod is, so a finite result
 * from a token it consumes whole is taken as is. Every other token
 * goes to strtod on a NUL-terminated copy, which defines what the
 * reader accepts: a leading '+' or whitespace, hex floats, inf and
 * nan (strtod keeps a nan(...) payload that from_chars drops),
 * out-of-range values and tokens with an embedded NUL.
 */
bool
parseDouble(std::string_view text, double &value, Diag &diag)
{
    const char *const end = text.data() + text.size();
    const auto result = std::from_chars(text.data(), end, value);
    if (result.ec == std::errc() && result.ptr == end &&
        std::isfinite(value))
        return true;
    const std::string copy(text);
    char *stop = nullptr;
    value = std::strtod(copy.c_str(), &stop);
    if (stop == copy.c_str() || *stop != '\0')
        return diag.fail("bad number: ", text);
    return true;
}

bool
parseInt(std::string_view text, long long &value, Diag &diag)
{
    const char *const end = text.data() + text.size();
    const auto result = std::from_chars(text.data(), end, value);
    if (result.ec != std::errc() || result.ptr != end)
        return diag.fail("bad integer: ", text);
    return true;
}

bool
parseBool(std::string_view text, bool &value, Diag &diag)
{
    if (text == "true")
        value = true;
    else if (text == "false")
        value = false;
    else
        return diag.fail("bad bool: ", text);
    return true;
}

bool
assignField(Event &event, Field field, std::string_view text,
            Diag &diag)
{
    if (field == Field::A)
        return parseDouble(text, event.a, diag);
    if (field == Field::B)
        return parseDouble(text, event.b, diag);
    long long integer = 0;
    if (!parseInt(text, integer, diag))
        return false;
    switch (field) {
      case Field::Id:
        event.id = static_cast<std::uint64_t>(integer);
        return true;
      case Field::Value: event.value = integer; return true;
      case Field::Extra: event.extra = integer; return true;
      case Field::Options:
        event.options = static_cast<std::uint32_t>(integer);
        return true;
      case Field::A:
      case Field::B:
        break;
    }
    util::panic("unknown trace field");
}

/** Header-comment prefix carrying the trace schema version. */
constexpr std::string_view kSchemaPrefix =
    "# quetzal-trace schema_version=";

/**
 * Parse and check a schema_version header line. The major version
 * must match the reader's; an unknown major is a clean error (the
 * file needs a newer/older tool, not a parser guess).
 */
bool
checkSchemaHeader(std::string_view line, Diag &diag)
{
    const std::string_view version = line.substr(kSchemaPrefix.size());
    const char *const end = version.data() + version.size();
    int major = 0;
    const auto result = std::from_chars(version.data(), end, major);
    if (result.ec != std::errc() || result.ptr == version.data() ||
        (result.ptr != end && *result.ptr != '.'))
        return diag.fail("malformed schema_version header: ", line);
    if (major != kTraceSchemaMajor)
        return diag.fail(
            "unsupported trace schema_version ", version,
            " (this reader supports major ", kTraceSchemaMajor,
            ".x); regenerate the trace or use a matching quetzal ",
            "build");
    return true;
}

/** The entry of a schema table with this key, or null. */
template <typename Desc>
const Desc *
findKey(const std::vector<Desc> &table, std::string_view key)
{
    for (const Desc &desc : table) {
        if (desc.key == key)
            return &desc;
    }
    return nullptr;
}

/**
 * Decode the pairs of one object. The kind drives the schema, so
 * it is found first (the last "kind" wins); the other pairs are
 * then checked in line order, so the first bad pair names the
 * diagnostic.
 */
bool
decodePairs(const RawPairs &pairs, TraceRecord &record, Diag &diag)
{
    const Schema *schema = nullptr;
    for (const RawPair &pair : pairs) {
        if (pair.key != "kind")
            continue;
        const auto kind = parseEventKind(pair.value);
        if (!kind)
            return diag.fail("unknown kind: ", pair.value);
        record.event.kind = *kind;
        schema = &schemaFor(*kind);
    }
    if (schema == nullptr)
        return diag.fail("missing kind");

    long long integer = 0;
    for (const RawPair &pair : pairs) {
        if (pair.key == "kind")
            continue;
        if (pair.key == "run") {
            if (!parseInt(pair.value, integer, diag))
                return false;
            record.run = static_cast<std::uint64_t>(integer);
            continue;
        }
        if (pair.key == "t") {
            if (!parseInt(pair.value, integer, diag))
                return false;
            record.event.tick = integer;
            continue;
        }
        if (const FieldDesc *field = findKey(schema->fields, pair.key)) {
            if (!assignField(record.event, field->field, pair.value,
                             diag))
                return false;
            continue;
        }
        const FlagDesc *flag = findKey(schema->flags, pair.key);
        if (flag == nullptr)
            return diag.fail("unknown key '", pair.key, "' for kind ",
                             eventKindName(record.event.kind));
        bool on = false;
        if (!parseBool(pair.value, on, diag))
            return false;
        if (on)
            record.event.flags |= flag->bit;
    }
    return true;
}

} // namespace

void
writeJsonlHeader(std::ostream &out)
{
    out << kSchemaPrefix << kTraceSchemaMajor << '.'
        << kTraceSchemaMinor << '\n';
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

JsonlLine
decodeJsonlLine(std::string_view line, std::size_t lineNumber,
                TraceRecord &out, std::string &error)
{
    Diag diag{lineNumber, error};
    if (line.starts_with(kSchemaPrefix))
        return checkSchemaHeader(line, diag) ? JsonlLine::Skip
                                             : JsonlLine::Malformed;
    if (line.empty() || line[0] == '#')
        return JsonlLine::Skip;

    RawPairs pairs;
    TraceRecord record;
    if (!scanObject(line, pairs, diag) ||
        !decodePairs(pairs, record, diag))
        return JsonlLine::Malformed;
    out = record;
    return JsonlLine::Record;
}

std::vector<TraceRecord>
readJsonl(std::istream &in)
{
    std::vector<TraceRecord> records;
    JsonlTraceCursor cursor(in);
    TraceRecord record;
    while (cursor.next(record))
        records.push_back(record);
    return records;
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

void
writeChromeTraceHeader(std::ostream &out)
{
    out << "[\n";
}

void
writeChromeTraceFooter(std::ostream &out)
{
    out << "\n]\n";
}

} // namespace obs
} // namespace quetzal
