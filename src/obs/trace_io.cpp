#include "obs/trace_io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>

#include "obs/btrace.hpp"
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

/** Widest std::to_chars output of each number type the writers
 *  print: sign and digits for the integers; sign, max_digits10
 *  digits, point, "e-" and three exponent digits for the shortest
 *  round-trip form of a double. */
template <typename T>
constexpr std::size_t kMaxChars = std::is_floating_point_v<T>
    ? 1 + std::numeric_limits<T>::max_digits10 + 1 + 2 + 3
    : std::numeric_limits<T>::digits10 + 1 +
        (std::numeric_limits<T>::is_signed ? 1 : 0);

/** Copy a literal to `p`; the emitter's bound guarantees room. */
char *
put(char *p, std::string_view text)
{
    std::memcpy(p, text.data(), text.size());
    return p + text.size();
}

/** Format a number at `p` in at most kMaxChars<T> bytes. Doubles
 *  take the shortest round-trip form. */
template <typename T>
char *
putNumber(char *p, T value)
{
    const auto result = std::to_chars(p, p + kMaxChars<T>, value);
    if (result.ec != std::errc())
        util::panic("trace number wider than its bound");
    return result.ptr;
}

char *
putField(char *p, const Event &event, Field field)
{
    switch (field) {
      case Field::Id: return putNumber(p, event.id);
      case Field::Value: return putNumber(p, event.value);
      case Field::Extra: return putNumber(p, event.extra);
      case Field::A: return putNumber(p, event.a);
      case Field::B: return putNumber(p, event.b);
      case Field::Options: return putNumber(p, event.options);
    }
    util::panic("unknown trace field");
}

std::size_t
maxFieldChars(Field field)
{
    switch (field) {
      case Field::Id: return kMaxChars<std::uint64_t>;
      case Field::Value:
      case Field::Extra: return kMaxChars<std::int64_t>;
      case Field::A:
      case Field::B: return kMaxChars<double>;
      case Field::Options: return kMaxChars<std::uint32_t>;
    }
    util::panic("unknown trace field");
}

/** One schema field as the writers print it. */
struct FieldLiteral
{
    std::string key; ///< `,"es":`
    Field field;
};

/** One schema flag as the writers print it, in both states. */
struct FlagLiteral
{
    std::string on;  ///< `,"ibo":true`
    std::string off; ///< `,"ibo":false`
    std::uint32_t bit;
};

/** Duration slices in the Chrome export: they carry "dur" and start
 *  at tick minus duration. */
bool
isChromeSlice(EventKind kind)
{
    return kind == EventKind::JobComplete ||
        kind == EventKind::RechargeInterval;
}

/** `,"dur":` between a Chrome slice's start and its duration. */
constexpr std::string_view kChromeDur = ",\"dur\":";

/** The per-run prefix of every JSONL line, `{"run":N,"t":`: the
 *  writer prints it around the run index, and the reader's first
 *  route walks it. */
constexpr std::string_view kJsonlRunKey = "{\"run\":";
constexpr std::string_view kJsonlTickKey = ",\"t\":";
/** Every kind's jsonlHead up to its name. */
constexpr std::string_view kJsonlKindKey = ",\"kind\":\"";

/**
 * Every constant byte of one kind's lines, built once from
 * schemaFor() and eventKindName(): the writers format from the same
 * table the reader decodes with, so neither can gain a key the other
 * lacks. JSONL and Chrome share the field and flag literals; Chrome
 * drops the leading comma of its first argument.
 */
struct KindLiterals
{
    std::string jsonlHead;  ///< `,"kind":"schedule"`
    std::string chromeHead; ///< `{"name":"schedule","ph":"i","s":"t","ts":`
    std::vector<FieldLiteral> fields;
    std::vector<FlagLiteral> flags;
    /** Leading fields in Chrome's args: the occupancy counter track
     *  carries its value alone, every other kind its whole schema. */
    std::size_t chromeFields = 0;
};

/** The literals of every kind, and the longest line each format can
 *  give after its per-run prefix: the emitter's slack. */
struct TraceLiterals
{
    KindLiterals kinds[kEventKindCount];
    std::size_t jsonlMaxLine = 0;
    std::size_t chromeMaxLine = 0;
};

const TraceLiterals &
traceLiterals()
{
    static const TraceLiterals kLiterals = [] {
        TraceLiterals table;
        for (std::size_t i = 0; i < kEventKindCount; ++i) {
            const auto kind = static_cast<EventKind>(i);
            const Schema &schema = schemaFor(kind);
            KindLiterals &lits = table.kinds[i];
            const std::string_view name = eventKindName(kind);
            lits.jsonlHead = util::msg(kJsonlKindKey, name, '"');
            switch (kind) {
              case EventKind::JobComplete:
                lits.chromeHead = "{\"name\":\"job\",\"ph\":\"X\",\"ts\":";
                break;
              case EventKind::RechargeInterval:
                lits.chromeHead =
                    "{\"name\":\"recharge\",\"ph\":\"X\",\"ts\":";
                break;
              case EventKind::BufferOccupancy:
                lits.chromeHead = "{\"name\":\"buffer\",\"ph\":\"C\",\"ts\":";
                break;
              default:
                lits.chromeHead = util::msg("{\"name\":\"", name,
                                            "\",\"ph\":\"i\",\"s\":\"t\","
                                            "\"ts\":");
                break;
            }
            lits.chromeFields = kind == EventKind::BufferOccupancy
                ? 1 : schema.fields.size();

            // "}\n" closes a JSONL line, "}}" a Chrome object.
            std::size_t jsonl = kMaxChars<Tick> + lits.jsonlHead.size() + 2;
            std::size_t chrome = lits.chromeHead.size() +
                kMaxChars<long long> + 2;
            if (isChromeSlice(kind))
                chrome += kChromeDur.size() + kMaxChars<long long>;
            for (std::size_t f = 0; f < schema.fields.size(); ++f) {
                const FieldDesc &desc = schema.fields[f];
                lits.fields.push_back(
                    {util::msg(",\"", desc.key, "\":"), desc.field});
                const std::size_t width =
                    lits.fields.back().key.size() + maxFieldChars(desc.field);
                jsonl += width;
                if (f < lits.chromeFields)
                    chrome += width;
            }
            for (const FlagDesc &desc : schema.flags) {
                lits.flags.push_back(
                    {util::msg(",\"", desc.key, "\":true"),
                     util::msg(",\"", desc.key, "\":false"), desc.bit});
                jsonl += lits.flags.back().off.size();
                chrome += lits.flags.back().off.size();
            }
            table.jsonlMaxLine = std::max(table.jsonlMaxLine, jsonl);
            table.chromeMaxLine = std::max(table.chromeMaxLine, chrome);
        }
        return table;
    }();
    return kLiterals;
}

const KindLiterals &
literalsFor(EventKind kind)
{
    const auto index = static_cast<std::size_t>(kind);
    if (index >= kEventKindCount)
        util::panic("unknown event kind");
    return traceLiterals().kinds[index];
}

/** A per-run literal: `head`, the run index, then `tail`. */
std::string
runLiteral(std::string_view head, std::uint64_t runIndex,
           std::string_view tail)
{
    char digits[kMaxChars<std::uint64_t>];
    std::string text(head);
    text.append(digits, putNumber(digits, runIndex));
    text += tail;
    return text;
}

/**
 * Bounded chunk buffer between a trace writer and its stream. The
 * writer formats each line straight into it, and every full chunk
 * goes to the stream in one out.write(). begin() leaves room for
 * `maxLine` bytes, the longest line the literal table allows, so a
 * line is written without per-piece checks; end() panics if one ever
 * overran that bound.
 */
class ChunkEmitter
{
  public:
    /** Chunks are about this large; a short run gets a smaller buffer. */
    static constexpr std::size_t kChunkBytes = 64 * 1024;

    ChunkEmitter(std::ostream &out, std::size_t maxLine, std::size_t lines)
        : out(out), maxLine(maxLine),
          capacity(std::min(lines, kChunkBytes / maxLine) * maxLine +
                   maxLine),
          buffer(std::make_unique_for_overwrite<char[]>(capacity)),
          cursor(buffer.get())
    {
    }

    /** Where the next line starts; flushes first if it might not fit. */
    char *
    begin()
    {
        if (static_cast<std::size_t>(buffer.get() + capacity - cursor) <
            maxLine)
            flush();
        return cursor;
    }

    /** Commit the line that begin() started and that ends at `end`. */
    void
    end(char *end)
    {
        if (static_cast<std::size_t>(end - cursor) > maxLine)
            util::panic("trace line overran its computed bound");
        cursor = end;
    }

    /** Hand everything buffered to the stream. */
    void
    flush()
    {
        out.write(buffer.get(), cursor - buffer.get());
        cursor = buffer.get();
    }

  private:
    std::ostream &out;
    const std::size_t maxLine;
    const std::size_t capacity;
    const std::unique_ptr<char[]> buffer;
    char *cursor;
};

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

/** Store a decoded integer in the member an integer field maps to. */
void
setIntegerField(Event &event, Field field, long long integer)
{
    switch (field) {
      case Field::Id:
        event.id = static_cast<std::uint64_t>(integer);
        return;
      case Field::Value: event.value = integer; return;
      case Field::Extra: event.extra = integer; return;
      case Field::Options:
        event.options = static_cast<std::uint32_t>(integer);
        return;
      case Field::A:
      case Field::B:
        break;
    }
    util::panic("unknown trace field");
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
    setIntegerField(event, field, integer);
    return true;
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

/** A cursor over one line for the writer-literal route: each step
 *  consumes what it matched, or fails and leaves the rest to the
 *  general route. */
struct LiteralWalk
{
    const char *p;
    const char *const end;

    bool
    literal(std::string_view text)
    {
        if (static_cast<std::size_t>(end - p) < text.size() ||
            std::memcmp(p, text.data(), text.size()) != 0)
            return false;
        p += text.size();
        return true;
    }

    bool
    integer(long long &value)
    {
        const auto result = std::from_chars(p, end, value);
        if (result.ec != std::errc())
            return false;
        p = result.ptr;
        return true;
    }

    bool
    real(double &value)
    {
        const auto result = std::from_chars(p, end, value);
        if (result.ec != std::errc() || !std::isfinite(value))
            return false;
        p = result.ptr;
        return true;
    }

    bool
    field(Event &event, Field field)
    {
        if (field == Field::A)
            return real(event.a);
        if (field == Field::B)
            return real(event.b);
        long long value = 0;
        if (!integer(value))
            return false;
        setIntegerField(event, field, value);
        return true;
    }
};

/**
 * The first route of decodeJsonlLine(): walk `line` against the
 * literals writeJsonl() prints — `{"run":`, the run, `,"t":`, the
 * tick, the kind's jsonlHead, each field key and its number, each
 * flag in its on or off form, then '}'; bytes after it are ignored.
 * Numbers are read by std::from_chars alone, and a double only when
 * finite. Every literal after a number starts with ',' or is the
 * closing '}', so a token counts only where the general scan would
 * end it, and from_chars then reads it as parseInt()/parseDouble()
 * do. False at the first byte that differs, with `out` untouched:
 * the general route then decides the line. Both routes accept a
 * writer line with the same bits, so trying this one first changes
 * no outcome.
 */
bool
decodeWriterLine(std::string_view line, TraceRecord &out)
{
    LiteralWalk walk{line.data(), line.data() + line.size()};
    TraceRecord record;
    long long run = 0;
    long long tick = 0;
    if (!walk.literal(kJsonlRunKey) || !walk.integer(run) ||
        !walk.literal(kJsonlTickKey) || !walk.integer(tick))
        return false;
    record.run = static_cast<std::uint64_t>(run);
    record.event.tick = tick;

    // The name between `,"kind":"` and the next quote picks the kind
    // whose literals the rest of the line must follow.
    const std::string_view rest(walk.p, walk.end - walk.p);
    const std::size_t nameEnd = rest.find('"', kJsonlKindKey.size());
    if (nameEnd == std::string_view::npos)
        return false;
    const auto kind = parseEventKind(rest.substr(
        kJsonlKindKey.size(), nameEnd - kJsonlKindKey.size()));
    if (!kind)
        return false;
    const KindLiterals &lits = literalsFor(*kind);
    if (!walk.literal(lits.jsonlHead))
        return false;
    record.event.kind = *kind;

    for (const FieldLiteral &field : lits.fields) {
        if (!walk.literal(field.key) ||
            !walk.field(record.event, field.field))
            return false;
    }
    for (const FlagLiteral &flag : lits.flags) {
        if (walk.literal(flag.on))
            record.event.flags |= flag.bit;
        else if (!walk.literal(flag.off))
            return false;
    }
    if (!walk.literal("}"))
        return false;
    out = record;
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
    if (events.empty())
        return;
    const TraceLiterals &table = traceLiterals();
    const std::string prefix =
        runLiteral(kJsonlRunKey, runIndex, kJsonlTickKey);
    ChunkEmitter emit(out, prefix.size() + table.jsonlMaxLine,
                      events.size());
    for (const Event &event : events) {
        const KindLiterals &lits = literalsFor(event.kind);
        char *p = emit.begin();
        p = put(p, prefix);
        p = putNumber(p, event.tick);
        p = put(p, lits.jsonlHead);
        for (const FieldLiteral &field : lits.fields) {
            p = put(p, field.key);
            p = putField(p, event, field.field);
        }
        for (const FlagLiteral &flag : lits.flags)
            p = put(p, (event.flags & flag.bit) ? flag.on : flag.off);
        *p++ = '}';
        *p++ = '\n';
        emit.end(p);
    }
    emit.flush();
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
    if (decodeWriterLine(line, out))
        return JsonlLine::Record;

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
    if (events.empty())
        return first;
    const TraceLiterals &table = traceLiterals();
    const std::string pid =
        runLiteral(",\"pid\":", runIndex, ",\"tid\":0,\"args\":{");
    constexpr std::string_view kSeparator = ",\n";
    ChunkEmitter emit(out,
                      kSeparator.size() + pid.size() + table.chromeMaxLine,
                      events.size());
    for (const Event &event : events) {
        const KindLiterals &lits = literalsFor(event.kind);
        char *p = emit.begin();
        if (first)
            first = false;
        else
            p = put(p, kSeparator);
        p = put(p, lits.chromeHead);
        const long long ts = static_cast<long long>(event.tick) * 1000;
        if (isChromeSlice(event.kind)) {
            // Duration slice ending at the event's tick.
            const long long dur = event.kind == EventKind::JobComplete
                ? static_cast<long long>(event.a * 1e6 + 0.5)
                : static_cast<long long>(event.value) * 1000;
            p = putNumber(p, ts - dur);
            p = put(p, kChromeDur);
            p = putNumber(p, dur);
        } else {
            p = putNumber(p, ts);
        }
        p = put(p, pid);
        // The first argument drops its literal's leading comma.
        std::size_t comma = 1;
        for (std::size_t f = 0; f < lits.chromeFields; ++f) {
            const FieldLiteral &field = lits.fields[f];
            p = put(p, std::string_view(field.key).substr(comma));
            p = putField(p, event, field.field);
            comma = 0;
        }
        for (const FlagLiteral &flag : lits.flags) {
            const std::string &text =
                (event.flags & flag.bit) ? flag.on : flag.off;
            p = put(p, std::string_view(text).substr(comma));
            comma = 0;
        }
        *p++ = '}';
        *p++ = '}';
        emit.end(p);
    }
    emit.flush();
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

std::ostream &
openTraceOutput(const std::string &path, std::ofstream &file,
                const char *what)
{
    if (path == "-")
        return std::cout;
    file.open(path, std::ios::binary);
    if (!file)
        util::fatal(util::msg("cannot open ", what, ": ", path));
    return file;
}

void
checkTraceOutput(std::ostream &out, const std::string &path,
                 const char *what)
{
    if (auto *file = dynamic_cast<std::ofstream *>(&out))
        file->close();
    else
        out.flush();
    if (!out)
        util::fatal(util::msg("error writing ", what, ": ", path));
}

void
writeTraceFile(const std::string &path, const std::string &format,
               const std::vector<VectorSink> &sinks)
{
    std::ofstream file;
    std::ostream &out = openTraceOutput(path, file);
    if (format == "chrome") {
        writeChromeTraceHeader(out);
        bool first = true;
        for (std::size_t i = 0; i < sinks.size(); ++i)
            first = writeChromeTrace(out, sinks[i].events(), i, first);
        writeChromeTraceFooter(out);
    } else if (format == "btrace") {
        // Runs record in parallel into per-run sinks, so they are
        // serialized in run order after the joins — byte-identical to
        // one BtraceWriter recording the same streams live.
        BtraceWriter writer(out);
        for (std::size_t i = 0; i < sinks.size(); ++i)
            writer.writeRun(sinks[i].events(), i);
        writer.finish();
    } else {
        writeJsonlHeader(out);
        for (std::size_t i = 0; i < sinks.size(); ++i)
            writeJsonl(out, sinks[i].events(), i);
    }
    checkTraceOutput(out, path);
}

} // namespace obs
} // namespace quetzal
