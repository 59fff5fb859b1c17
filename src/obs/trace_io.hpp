/**
 * @file
 * Trace serialization: JSONL (one event per line, for scripting and
 * golden-trace tests) and Chrome trace_event JSON (load the file in
 * chrome://tracing or https://ui.perfetto.dev to see the run on a
 * timeline).
 *
 * Determinism contract: serialization is a pure function of the
 * event stream. Doubles are printed with shortest-round-trip
 * formatting (std::to_chars), integers in decimal, keys in a fixed
 * order — so the same run produces the same bytes on every rerun and
 * for every --jobs value. The JSONL reader inverts writeJsonl()
 * exactly (same field table), which is what lets tools/trace_stat
 * and the tests/obs cross-check reconstruct metrics from a file.
 *
 * Writing: writeJsonl() and writeChromeTrace() format each line
 * straight into a bounded chunk buffer from literals built once off
 * that field table, and hand the stream whole chunks.
 *
 * Reading: decodeJsonlLine() is the one JSONL parser, with two
 * routes. It first walks a line against the literals the writer
 * prints, reading each number with std::from_chars; at the first
 * byte that differs it hands the line to a general scan into
 * string_views of the caller's buffer, which alone takes reordered,
 * duplicated or unknown keys, whitespace and strtod-only tokens, and
 * alone reports malformed input. Both routes accept a writer line
 * with the same bits, neither allocates on a well-formed line, and
 * neither exits: JsonlTraceCursor (and readJsonl() through it) turns
 * the diagnostic into util::fatal().
 */

#ifndef QUETZAL_OBS_TRACE_IO_HPP
#define QUETZAL_OBS_TRACE_IO_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event.hpp"
#include "obs/trace_sink.hpp"

namespace quetzal {
namespace obs {

/** One line of a (possibly multi-run) JSONL trace. */
struct TraceRecord
{
    std::uint64_t run = 0;
    Event event;
};

/**
 * @name Trace schema version
 * Every JSONL trace file starts with a header comment line
 * (`# quetzal-trace schema_version=MAJOR.MINOR`). The major version
 * bumps on breaking changes to the event vocabulary or field tables;
 * the minor version on backward-compatible additions. readJsonl()
 * rejects files whose header declares a different major version, and
 * accepts headerless files (pre-versioning traces) for backward
 * compatibility.
 */
/// @{
inline constexpr int kTraceSchemaMajor = 1;
inline constexpr int kTraceSchemaMinor = 0;

/** Write the schema_version header line (once, before any events). */
void writeJsonlHeader(std::ostream &out);
/// @}

/**
 * Write one run's events as JSONL, one `{"run":N,"t":...}` object
 * per line. Multi-run traces are written by calling writeJsonlHeader()
 * once and then this once per run, in run-index order.
 */
void writeJsonl(std::ostream &out, const std::vector<Event> &events,
                std::uint64_t runIndex);

/**
 * Parse a JSONL trace (any number of runs) by draining a
 * JsonlTraceCursor. Lines must have been produced by writeJsonl();
 * calls util::fatal() on malformed input. Blank lines and `#`
 * comment lines are skipped.
 */
std::vector<TraceRecord> readJsonl(std::istream &in);

/** What decodeJsonlLine() found on one line. */
enum class JsonlLine
{
    Record,    ///< `out` holds the decoded record
    Skip,      ///< blank line or `#` comment; no record
    Malformed, ///< `error` holds the diagnostic
};

/**
 * Decode one line of a JSONL trace: the single parser behind
 * JsonlTraceCursor and readJsonl(). Blank lines and `#` comments
 * are Skip, including the schema_version header, which is still
 * version-checked (Malformed on a major mismatch). Never exits: on
 * Malformed, `error` holds the full diagnostic ("trace line N: ...")
 * and `out` is left unchanged. `lineNumber` is 1-based and only used
 * in diagnostics.
 */
JsonlLine decodeJsonlLine(std::string_view line, std::size_t lineNumber,
                          TraceRecord &out, std::string &error);

/**
 * Write one run's events in Chrome trace_event JSON array format.
 * Each run becomes one "process" (pid == run index): decision and
 * lifecycle instants, job-duration slices, recharge slices, and a
 * buffer-occupancy counter track.
 *
 * Open with writeChromeTraceHeader(), then call this once per run in
 * run-index order, then close with writeChromeTraceFooter().
 *
 * @param first true when no event has been written to `out` yet
 * @return the updated "still first" flag (false once any event was
 *         written)
 */
bool writeChromeTrace(std::ostream &out, const std::vector<Event> &events,
                      std::uint64_t runIndex, bool first);

/** Open the trace_event JSON array. */
void writeChromeTraceHeader(std::ostream &out);

/** Close the JSON array opened by writeChromeTraceHeader(). */
void writeChromeTraceFooter(std::ostream &out);

/**
 * The stream an output for `path` goes to: stdout for "-", otherwise
 * `file`, opened on `path`. Fatal ("cannot open <what>: <path>") when
 * the file cannot be opened. Outputs that are not the event trace
 * (a scenario CSV, the fleet episode trace) name themselves in `what`.
 */
std::ostream &openTraceOutput(const std::string &path,
                              std::ofstream &file,
                              const char *what = "trace output");

/** Flush `out` (close it if a file); fatal ("error writing <what>:
 *  <path>") when any write or the close failed. */
void checkTraceOutput(std::ostream &out, const std::string &path,
                      const char *what = "trace output");

/**
 * Serialize per-run sinks, in run-index order, as one trace file in
 * `format` ("chrome", "btrace", anything else JSONL) to `path`, or
 * to stdout when `path` is "-". Fatal when the output cannot be
 * opened or written.
 */
void writeTraceFile(const std::string &path, const std::string &format,
                    const std::vector<VectorSink> &sinks);

} // namespace obs
} // namespace quetzal

#endif // QUETZAL_OBS_TRACE_IO_HPP
