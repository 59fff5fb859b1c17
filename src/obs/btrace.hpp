/**
 * @file
 * quetzal-btrace-v1: the compact binary trace format (DESIGN.md
 * section 16).
 *
 * Layout:
 *
 *     file   := header chunk* footer
 *     header := "QZBT" u8(major) u8(minor) u16le(0)
 *     chunk  := u32le(payload size > 0) u32le(crc32c of payload) payload
 *     footer := u32le(0) u32le(0)
 *
 *     payload := varint(run index) varint(event count) record*
 *     record  := u8(kind) u8(field mask) zigzag(tick delta) field*
 *
 * A record's tick is zigzag-delta-coded against the previous record
 * in the same chunk (the first record deltas against 0), so chunks
 * decode independently. The field mask holds one presence bit per
 * non-zero Event member in a fixed order (id, value, extra, a, b,
 * flags, options); absent members decode as zero. Doubles travel as
 * raw IEEE-754 fixed64, so every value round-trips bit-exactly.
 *
 * Chunks never mix runs and seal deterministically: when the encoded
 * body reaches kBtraceChunkTarget, at a run boundary, and at
 * finish(). Chunk boundaries are therefore a pure function of the
 * event stream: a run recorded event by event and the same run
 * written afterwards with writeRun() produce byte-identical files.
 * The zero-size footer distinguishes a clean end of stream from a
 * truncated file.
 */

#ifndef QUETZAL_OBS_BTRACE_HPP
#define QUETZAL_OBS_BTRACE_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "obs/trace_sink.hpp"

namespace quetzal {
namespace obs {

/** @name Format identity */
/// @{
inline constexpr char kBtraceMagic[4] = {'Q', 'Z', 'B', 'T'};
inline constexpr std::uint8_t kBtraceMajor = 1;
inline constexpr std::uint8_t kBtraceMinor = 0;

/** Header size in bytes (magic + major + minor + reserved). */
inline constexpr std::size_t kBtraceHeaderSize = 8;

/** Body size at which a chunk seals (before framing). */
inline constexpr std::size_t kBtraceChunkTarget = 1u << 16;
/// @}

/**
 * The btrace writer: a TraceSink that encodes events into the open
 * chunk and, when the chunk seals, writes it straight to the output
 * stream on the recording thread. A run traced through it never
 * holds more than one ~64 KiB chunk in memory; writeRun() serializes
 * a recorded run the same way, so both paths emit identical bytes.
 *
 * The writer never checks the stream: callers check it after
 * finish(), as writeTraceFile() does. A writer destroyed without
 * finish() leaves no footer, which readers report as truncation.
 */
class BtraceWriter final : public TraceSink
{
  public:
    /** Writes the file header to `out` and opens run `runIndex`. */
    explicit BtraceWriter(std::ostream &out, std::uint64_t runIndex = 0);

    /** Append one event to the current run's chunk. */
    void record(const Event &event) override;

    /** Start (or switch to) a run; seals any pending chunk. */
    void beginRun(std::uint64_t runIndex);

    /** Append one run's events (call in run-index order). */
    void writeRun(const std::vector<Event> &events,
                  std::uint64_t runIndex);

    /** Seal the pending chunk, write the footer and flush. Call once. */
    void finish();

    /** Events encoded so far (all runs). */
    std::uint64_t eventCount() const { return totalEvents; }

  private:
    void sealChunk();

    std::ostream &out;
    /**
     * Fixed-size encode arena for the open chunk: records are
     * encoded in place at `bodyUsed` (the arena always holds
     * kBtraceChunkTarget plus one worst-case record), so the
     * per-event path performs no string bookkeeping at all.
     */
    std::string body;
    std::size_t bodyUsed = 0;
    std::uint64_t run = 0;
    std::uint64_t chunkEvents = 0;
    std::uint64_t totalEvents = 0;
    Tick previousTick = 0;
};

/** One decoded chunk: the run it belongs to and its events. */
struct BtraceChunk
{
    std::uint64_t run = 0;
    std::vector<Event> events;
};

/**
 * Decode one chunk payload (the bytes the chunk CRC covers).
 * @return false with a diagnostic in `error` on malformed input:
 *         truncation, an unknown kind or mask bit, a tick delta that
 *         overflows the tick range, flags or options wider than 32
 *         bits, or trailing bytes.
 */
bool decodeBtracePayload(const std::string &payload, BtraceChunk &out,
                         std::string &error);

/** True when `bytes` starts with the btrace magic. */
bool looksLikeBtrace(const std::string &prefix);

} // namespace obs
} // namespace quetzal

#endif // QUETZAL_OBS_BTRACE_HPP
