/**
 * @file
 * Unified streaming trace reader: one cursor API over both trace
 * formats (JSONL and quetzal-btrace-v1), so consumers like
 * tools/trace_stat and the golden-trace tests replay arbitrarily
 * long traces in bounded memory instead of materializing the run.
 *
 * Memory bound: a JSONL cursor holds one line; a btrace cursor holds
 * one decoded chunk (~64 KiB of payload). Corruption — truncation,
 * CRC mismatch, unknown schema major — is a clean util::fatal()
 * naming the file and position, never a parser guess. For JSONL,
 * JsonlTraceCursor::next() is the one place that exits: the line
 * decoder (decodeJsonlLine) only reports the diagnostic.
 */

#ifndef QUETZAL_OBS_TRACE_CURSOR_HPP
#define QUETZAL_OBS_TRACE_CURSOR_HPP

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>

#include "obs/btrace.hpp"
#include "obs/trace_io.hpp"

namespace quetzal {
namespace obs {

/** Which on-disk representation a cursor is decoding. */
enum class TraceFormat { Jsonl, Btrace };

/** Short lowercase name ("jsonl" / "btrace") for diagnostics. */
const char *traceFormatName(TraceFormat format);

/**
 * Pull-based record stream. next() yields records in file order and
 * returns false exactly once, at a *clean* end of stream; malformed
 * input is fatal before that.
 */
class TraceCursor
{
  public:
    virtual ~TraceCursor() = default;

    /** Advance to the next record. False at clean end-of-stream. */
    virtual bool next(TraceRecord &out) = 0;

    /** The format this cursor decodes. */
    virtual TraceFormat format() const = 0;
};

/** Streaming reader over writeJsonl() output. */
class JsonlTraceCursor final : public TraceCursor
{
  public:
    /**
     * @param carry bytes already consumed from `in` by format
     *        sniffing; logically the prefix of the first line
     */
    explicit JsonlTraceCursor(std::istream &in, std::string carry = "");

    bool next(TraceRecord &out) override;
    TraceFormat format() const override { return TraceFormat::Jsonl; }

  private:
    std::istream &in;
    std::string carry;
    bool carryPending;
    /** The current line; reused so a steady-state read allocates
     *  nothing once it has grown to the longest line. */
    std::string line;
    std::size_t lineNumber = 0;
};

/** Streaming reader over quetzal-btrace-v1 files. */
class BtraceTraceCursor final : public TraceCursor
{
  public:
    /**
     * Reads and validates the file header (fatal on a bad magic or
     * an unsupported schema major).
     * @param name appears in corruption diagnostics
     * @param magicConsumed the 4 magic bytes were already read (and
     *        matched) by format sniffing
     */
    BtraceTraceCursor(std::istream &in, std::string name,
                      bool magicConsumed = false);

    bool next(TraceRecord &out) override;
    TraceFormat format() const override { return TraceFormat::Btrace; }

  private:
    /** Read + verify + decode the next chunk; flips `done` at the
     *  footer; fatal on truncation or corruption. */
    void loadChunk();

    std::istream &in;
    std::string name;
    BtraceChunk chunk;
    std::size_t position = 0; ///< next event within `chunk`
    std::size_t chunkIndex = 0;
    bool done = false;
};

/**
 * Open a cursor over `in`, sniffing the format from the first bytes:
 * the btrace magic selects binary, anything else streams as JSONL.
 * @param name appears in diagnostics (file path or "<stdin>")
 */
std::unique_ptr<TraceCursor> openTraceCursor(std::istream &in,
                                             const std::string &name);

} // namespace obs
} // namespace quetzal

#endif // QUETZAL_OBS_TRACE_CURSOR_HPP
