#include "obs/btrace.hpp"

#include <ostream>

#include "util/wire.hpp"

namespace quetzal {
namespace obs {

namespace wire = util::wire;

namespace {

/** Field-presence bits, in encode order. */
enum : std::uint8_t {
    kMaskId = 1u << 0,
    kMaskValue = 1u << 1,
    kMaskExtra = 1u << 2,
    kMaskA = 1u << 3,
    kMaskB = 1u << 4,
    kMaskFlags = 1u << 5,
    kMaskOptions = 1u << 6,
};

} // namespace

BtraceWriter::BtraceWriter(std::ostream &stream, std::uint64_t runIndex)
    : out(stream), body(kBtraceChunkTarget + 80, '\0'), run(runIndex)
{
    const char header[kBtraceHeaderSize] = {
        kBtraceMagic[0], kBtraceMagic[1], kBtraceMagic[2], kBtraceMagic[3],
        static_cast<char>(kBtraceMajor), static_cast<char>(kBtraceMinor),
        0, 0};
    out.write(header, sizeof header);
}

void
BtraceWriter::beginRun(std::uint64_t runIndex)
{
    if (runIndex != run)
        sealChunk();
    run = runIndex;
}

void
BtraceWriter::record(const Event &event)
{
    // Worst case: 2 header bytes + 5 varints (10 bytes each) + 2
    // fixed64 doubles = 68 bytes; the arena always has that much
    // slack below the seal threshold, so records encode straight
    // into it — no scratch copy, no per-record string bookkeeping.
    // The presence branches stay branches on purpose: the simulator's
    // event mix is regular enough that they predict near-perfectly,
    // and measured ~30% faster than a branchless conditional-move
    // encoding of the same fields. The field mask accumulates inside
    // those same branches (each member is tested exactly once) and is
    // patched into the record's second byte afterwards.
    char *const base = body.data() + bodyUsed;
    char *p = base;
    std::uint8_t mask = 0;
    *p++ = static_cast<char>(event.kind);
    ++p; // mask slot, patched below
    p = wire::putZigzagRaw(p, event.tick - previousTick);
    previousTick = event.tick;
    if (event.id != 0) {
        p = wire::putVarintRaw(p, event.id);
        mask |= kMaskId;
    }
    if (event.value != 0) {
        p = wire::putZigzagRaw(p, event.value);
        mask |= kMaskValue;
    }
    if (event.extra != 0) {
        p = wire::putZigzagRaw(p, event.extra);
        mask |= kMaskExtra;
    }
    if (event.a != 0.0) {
        p = wire::putDoubleRaw(p, event.a);
        mask |= kMaskA;
    }
    if (event.b != 0.0) {
        p = wire::putDoubleRaw(p, event.b);
        mask |= kMaskB;
    }
    if (event.flags != 0) {
        p = wire::putVarintRaw(p, event.flags);
        mask |= kMaskFlags;
    }
    if (event.options != 0) {
        p = wire::putVarintRaw(p, event.options);
        mask |= kMaskOptions;
    }
    base[1] = static_cast<char>(mask);
    bodyUsed += static_cast<std::size_t>(p - base);

    ++chunkEvents;
    ++totalEvents;
    if (bodyUsed >= kBtraceChunkTarget)
        sealChunk();
}

void
BtraceWriter::writeRun(const std::vector<Event> &events,
                       std::uint64_t runIndex)
{
    beginRun(runIndex);
    for (const Event &event : events)
        record(event);
}

void
BtraceWriter::sealChunk()
{
    if (chunkEvents == 0)
        return;
    // The payload (varint run + varint count + records) is written
    // without ever materializing it: the frame and the head go out
    // in one small write, the body straight from the arena, and the
    // CRC streams over the head and the body.
    char frame[8 + 20];
    char *const head = frame + 8;
    char *p = wire::putVarintRaw(head, run);
    p = wire::putVarintRaw(p, chunkEvents);
    const std::size_t headSize = static_cast<std::size_t>(p - head);
    wire::Crc32 crc;
    crc.update(head, headSize);
    crc.update(body.data(), bodyUsed);
    // u32le(size) u32le(crc) is one u64le with the CRC on top.
    wire::putFixed64Raw(frame, (headSize + bodyUsed) |
                            std::uint64_t{crc.value()} << 32);
    out.write(frame, static_cast<std::streamsize>(p - frame));
    out.write(body.data(), static_cast<std::streamsize>(bodyUsed));
    bodyUsed = 0;
    chunkEvents = 0;
    previousTick = 0;
}

void
BtraceWriter::finish()
{
    sealChunk();
    const char footer[8] = {};
    out.write(footer, sizeof footer);
    out.flush();
}

bool
decodeBtracePayload(const std::string &payload, BtraceChunk &out,
                    std::string &error)
{
    wire::Reader reader(payload);
    std::uint64_t count = 0;
    if (!reader.getVarint(out.run) || !reader.getVarint(count)) {
        error = "chunk payload too short for run/count";
        return false;
    }
    if (count > payload.size()) {
        // Each record costs at least two bytes; a count beyond the
        // payload size is corruption, not a huge valid chunk.
        error = "chunk event count exceeds payload size";
        return false;
    }
    out.events.clear();
    out.events.reserve(static_cast<std::size_t>(count));
    Tick previousTick = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint8_t kind = 0;
        std::uint8_t mask = 0;
        std::int64_t tickDelta = 0;
        if (!reader.getByte(kind) || !reader.getByte(mask) ||
            !reader.getZigzag(tickDelta)) {
            error = "chunk truncated mid-record";
            return false;
        }
        if (kind >= kEventKindCount) {
            error = "record carries an unknown event kind";
            return false;
        }
        if ((mask & 0x80u) != 0) {
            error = "record carries an unknown field-mask bit";
            return false;
        }
        Event event;
        event.kind = static_cast<EventKind>(kind);
        if (__builtin_add_overflow(previousTick, tickDelta, &event.tick)) {
            error = "record tick delta overflows the tick range";
            return false;
        }
        previousTick = event.tick;
        std::uint64_t flags = 0;
        std::uint64_t options = 0;
        bool intact = true;
        if (mask & kMaskId)
            intact = intact && reader.getVarint(event.id);
        if (mask & kMaskValue)
            intact = intact && reader.getZigzag(event.value);
        if (mask & kMaskExtra)
            intact = intact && reader.getZigzag(event.extra);
        if (mask & kMaskA)
            intact = intact && reader.getDouble(event.a);
        if (mask & kMaskB)
            intact = intact && reader.getDouble(event.b);
        if (mask & kMaskFlags)
            intact = intact && reader.getVarint(flags);
        if (mask & kMaskOptions)
            intact = intact && reader.getVarint(options);
        if (!intact) {
            error = "chunk truncated mid-record";
            return false;
        }
        if (flags > UINT32_MAX || options > UINT32_MAX) {
            error = "record flags or options exceed 32 bits";
            return false;
        }
        event.flags = static_cast<std::uint32_t>(flags);
        event.options = static_cast<std::uint32_t>(options);
        out.events.push_back(event);
    }
    if (!reader.atEnd()) {
        error = "chunk carries trailing bytes after the last record";
        return false;
    }
    error.clear();
    return true;
}

bool
looksLikeBtrace(const std::string &prefix)
{
    return prefix.size() >= sizeof(kBtraceMagic) &&
        prefix.compare(0, sizeof(kBtraceMagic), kBtraceMagic,
                       sizeof(kBtraceMagic)) == 0;
}

} // namespace obs
} // namespace quetzal
