#include "obs/trace_cursor.hpp"

#include <istream>
#include <utility>

#include "util/wire.hpp"
#include "util/logging.hpp"

namespace quetzal {
namespace obs {

namespace wire = util::wire;

namespace {

/** Upper bound on a framed chunk payload; anything larger is
 *  corruption, not a valid chunk (the writer seals at ~64 KiB). */
constexpr std::uint32_t kMaxChunkPayload = 1u << 24;

/** Read exactly `size` bytes; false on a short read. */
bool
readExact(std::istream &in, char *data, std::size_t size)
{
    in.read(data, static_cast<std::streamsize>(size));
    return static_cast<std::size_t>(in.gcount()) == size;
}

bool
readFixed32(std::istream &in, std::uint32_t &value)
{
    char raw[4];
    if (!readExact(in, raw, sizeof(raw)))
        return false;
    wire::Reader reader(raw, sizeof(raw));
    return reader.getFixed32(value);
}

} // namespace

const char *
traceFormatName(TraceFormat format)
{
    return format == TraceFormat::Btrace ? "btrace" : "jsonl";
}

JsonlTraceCursor::JsonlTraceCursor(std::istream &stream,
                                   std::string carryBytes)
    : in(stream), carry(std::move(carryBytes)),
      carryPending(!carry.empty())
{
}

bool
JsonlTraceCursor::next(TraceRecord &out)
{
    while (true) {
        if (carryPending) {
            // Sniffed bytes are a raw prefix and may span lines.
            const std::size_t newline = carry.find('\n');
            if (newline != std::string::npos) {
                line.assign(carry, 0, newline);
                carry.erase(0, newline + 1);
                carryPending = !carry.empty();
            } else if (std::getline(in, line)) {
                line.insert(0, carry);
                carry.clear();
                carryPending = false;
            } else {
                // The file ended inside the prefix (no newline): the
                // carry itself is the final line.
                line = std::move(carry);
                carryPending = false;
            }
        } else if (!std::getline(in, line)) {
            return false;
        }
        ++lineNumber;
        std::string error;
        switch (decodeJsonlLine(line, lineNumber, out, error)) {
          case JsonlLine::Record: return true;
          case JsonlLine::Skip: break;
          case JsonlLine::Malformed: util::fatal(error);
        }
    }
}

BtraceTraceCursor::BtraceTraceCursor(std::istream &stream,
                                     std::string fileName,
                                     bool magicConsumed)
    : in(stream), name(std::move(fileName))
{
    char header[kBtraceHeaderSize];
    const std::size_t skip = magicConsumed ? sizeof(kBtraceMagic) : 0;
    if (!readExact(in, header + skip, sizeof(header) - skip))
        util::fatal(util::msg(name, ": truncated btrace header"));
    if (!magicConsumed &&
        std::string(header, sizeof(kBtraceMagic)) !=
            std::string(kBtraceMagic, sizeof(kBtraceMagic)))
        util::fatal(util::msg(name, ": not a quetzal-btrace file ",
                              "(bad magic)"));
    const auto major = static_cast<std::uint8_t>(
        header[sizeof(kBtraceMagic)]);
    const auto minor = static_cast<std::uint8_t>(
        header[sizeof(kBtraceMagic) + 1]);
    if (major != kBtraceMajor)
        util::fatal(util::msg(
            name, ": unsupported btrace schema version ",
            static_cast<int>(major), ".", static_cast<int>(minor),
            " (this reader supports major ",
            static_cast<int>(kBtraceMajor),
            ".x); regenerate the trace or use a matching quetzal ",
            "build"));
}

void
BtraceTraceCursor::loadChunk()
{
    std::uint32_t payloadSize = 0;
    if (!readFixed32(in, payloadSize))
        util::fatal(util::msg(name, ": truncated btrace file (chunk ",
                              chunkIndex, " frame cut short; missing ",
                              "footer)"));
    std::uint32_t storedCrc = 0;
    if (!readFixed32(in, storedCrc))
        util::fatal(util::msg(name, ": truncated btrace file (chunk ",
                              chunkIndex, " frame cut short)"));
    if (payloadSize == 0) {
        // Footer: clean end of stream.
        if (storedCrc != 0)
            util::fatal(util::msg(name, ": malformed btrace footer"));
        if (in.peek() != std::char_traits<char>::eof())
            util::fatal(util::msg(name, ": trailing bytes after the ",
                                  "btrace footer"));
        done = true;
        return;
    }
    if (payloadSize > kMaxChunkPayload)
        util::fatal(util::msg(name, ": implausible btrace chunk size ",
                              payloadSize, " (corrupt frame)"));
    std::string payload(payloadSize, '\0');
    if (!readExact(in, payload.data(), payloadSize))
        util::fatal(util::msg(name, ": truncated btrace file (chunk ",
                              chunkIndex, " payload cut short)"));
    const std::uint32_t actualCrc = wire::crc32(payload);
    if (actualCrc != storedCrc)
        util::fatal(util::msg(name, ": CRC mismatch in btrace chunk ",
                              chunkIndex, " (stored ", storedCrc,
                              ", computed ", actualCrc, ")"));
    std::string error;
    if (!decodeBtracePayload(payload, chunk, error))
        util::fatal(util::msg(name, ": malformed btrace chunk ",
                              chunkIndex, ": ", error));
    ++chunkIndex;
    position = 0;
}

bool
BtraceTraceCursor::next(TraceRecord &out)
{
    while (!done && position >= chunk.events.size())
        loadChunk();
    if (done)
        return false;
    out.run = chunk.run;
    out.event = chunk.events[position++];
    return true;
}

std::unique_ptr<TraceCursor>
openTraceCursor(std::istream &in, const std::string &name)
{
    char prefix[sizeof(kBtraceMagic)];
    in.read(prefix, sizeof(prefix));
    const auto got = static_cast<std::size_t>(in.gcount());
    in.clear(in.rdstate() & ~std::ios::failbit & ~std::ios::eofbit);
    const std::string head(prefix, got);
    if (looksLikeBtrace(head))
        return std::make_unique<BtraceTraceCursor>(in, name, true);
    return std::make_unique<JsonlTraceCursor>(in, head);
}

} // namespace obs
} // namespace quetzal
