/**
 * @file
 * Wall-clock microbenchmark of trace serialization: the same
 * captured event stream (a real traced run, not synthetic records)
 * serialized as JSONL text and as quetzal-btrace-v1, both into an
 * in-memory counting sink so the figures measure formatting cost,
 * not disk.
 *
 * Phases, each reported as ns per event:
 *   - jsonl:  writeJsonl() of every repeat of the captured stream,
 *   - btrace: BtraceWriter over the identical repeats (one run per
 *             repeat, matching the JSONL run indexing),
 *   - jsonl_read / btrace_read: the same two streams read back
 *             through openTraceCursor from memory, as trace_stat
 *             and the golden-trace tests read a file.
 *
 * Emits one line of quetzal-bench-v1 JSON (see bench_json.hpp);
 * "ns_per_event" is the btrace figure (the format the billion-event
 * runs write) and the one scripts/check_bench.sh gates against the
 * trajectory; "speedup_x", the jsonl/btrace throughput ratio, is
 * reported only: it falls whenever the JSONL writer gets faster.
 *
 * Usage: micro_trace [--events N] [--repeats N]
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "obs/btrace.hpp"
#include "obs/trace_cursor.hpp"
#include "obs/trace_io.hpp"
#include "obs/trace_sink.hpp"
#include "sim/experiment.hpp"

namespace {

using namespace quetzal;

/** Discards everything; counts bytes so nothing is optimized away. */
class CountingBuf final : public std::streambuf
{
  public:
    std::size_t bytes = 0;

  protected:
    int_type
    overflow(int_type ch) override
    {
        if (ch != traits_type::eof())
            ++bytes;
        return ch;
    }

    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        bytes += static_cast<std::size_t>(n);
        return n;
    }
};

/** Read-only view of bytes already in memory, so each read pass
 *  starts from the same buffer without copying it. */
class ViewBuf final : public std::streambuf
{
  public:
    explicit ViewBuf(const std::string &bytes)
    {
        char *begin = const_cast<char *>(bytes.data());
        setg(begin, begin, begin + bytes.size());
    }
};

double
nsPerEvent(const std::chrono::steady_clock::time_point &start,
           const std::chrono::steady_clock::time_point &end,
           std::size_t events)
{
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        end - start).count();
    return static_cast<double>(ns) / static_cast<double>(events);
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t eventCount = 200;
    std::size_t repeats = 20;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "usage: %s [--events N] "
                             "[--repeats N]\n", argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--events")
            eventCount = std::strtoull(value(), nullptr, 10);
        else if (arg == "--repeats")
            repeats = std::strtoull(value(), nullptr, 10);
        else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            return 2;
        }
    }
    if (eventCount == 0 || repeats == 0) {
        std::fprintf(stderr, "--events and --repeats must be > 0\n");
        return 2;
    }

    // The reference traced workload: one fully-observed run of the
    // paper's default configuration. Every event kind the simulator
    // emits is represented at its natural frequency.
    sim::ExperimentConfig config;
    config.eventCount = eventCount;
    config.seed = 42;
    config.sim.drainTicks = 30 * kTicksPerSecond;
    config.obsLevel = obs::ObsLevel::Full;
    obs::VectorSink sink;
    config.obsSink = &sink;
    (void)sim::runExperiment(config);
    const std::vector<obs::Event> &events = sink.events();
    if (events.empty()) {
        std::fprintf(stderr, "captured no events\n");
        return 1;
    }
    const std::size_t total = events.size() * repeats;

    // Best of three passes per format: the figures gate a perf
    // trajectory, so scheduler noise should not masquerade as a
    // regression (or inflate the speedup).
    constexpr int kPasses = 3;
    std::size_t jsonlBytes = 0;
    std::size_t btraceBytes = 0;
    double jsonlNs = 0.0;
    double btraceNs = 0.0;
    for (int pass = 0; pass < kPasses; ++pass) {
        CountingBuf buf;
        std::ostream out(&buf);
        const auto start = std::chrono::steady_clock::now();
        obs::writeJsonlHeader(out);
        for (std::size_t run = 0; run < repeats; ++run)
            obs::writeJsonl(out, events, run);
        const auto end = std::chrono::steady_clock::now();
        const double ns = nsPerEvent(start, end, total);
        if (pass == 0 || ns < jsonlNs)
            jsonlNs = ns;
        jsonlBytes = buf.bytes;
    }
    for (int pass = 0; pass < kPasses; ++pass) {
        CountingBuf buf;
        std::ostream out(&buf);
        const auto start = std::chrono::steady_clock::now();
        {
            obs::BtraceWriter writer(out);
            for (std::size_t run = 0; run < repeats; ++run)
                writer.writeRun(events, run);
            writer.finish();
        }
        const auto end = std::chrono::steady_clock::now();
        const double ns = nsPerEvent(start, end, total);
        if (pass == 0 || ns < btraceNs)
            btraceNs = ns;
        btraceBytes = buf.bytes;
    }
    // Read-back: serialize each format once, untimed, then time
    // openTraceCursor draining it (best of three, as above).
    auto serialized = [&](bool btrace) {
        std::ostringstream out;
        if (btrace) {
            obs::BtraceWriter writer(out);
            for (std::size_t run = 0; run < repeats; ++run)
                writer.writeRun(events, run);
            writer.finish();
        } else {
            obs::writeJsonlHeader(out);
            for (std::size_t run = 0; run < repeats; ++run)
                obs::writeJsonl(out, events, run);
        }
        return std::move(out).str();
    };
    auto readNs = [&](const std::string &bytes) {
        double best = 0.0;
        for (int pass = 0; pass < kPasses; ++pass) {
            ViewBuf buf(bytes);
            std::istream in(&buf);
            std::size_t records = 0;
            const auto start = std::chrono::steady_clock::now();
            const auto cursor = obs::openTraceCursor(in, "<memory>");
            obs::TraceRecord record;
            while (cursor->next(record))
                ++records;
            const auto end = std::chrono::steady_clock::now();
            if (records != total) {
                std::fprintf(stderr, "micro_trace: read back %zu of "
                             "%zu events\n", records, total);
                std::exit(1);
            }
            const double ns = nsPerEvent(start, end, total);
            if (pass == 0 || ns < best)
                best = ns;
        }
        return best;
    };
    const double jsonlReadNs = readNs(serialized(false));
    const double btraceReadNs = readNs(serialized(true));

    const double speedup = btraceNs > 0.0 ? jsonlNs / btraceNs : 0.0;
    const double ratio = btraceBytes > 0
        ? static_cast<double>(jsonlBytes) /
            static_cast<double>(btraceBytes)
        : 0.0;

    bench::JsonLine line("micro_trace");
    line.add("events", eventCount)
        .add("repeats", repeats)
        .add("stream_events", total)
        .add("jsonl_ns_per_event", jsonlNs)
        .add("btrace_ns_per_event", btraceNs)
        .add("ns_per_event", btraceNs)
        .add("speedup_x", speedup, 1)
        .add("jsonl_bytes", jsonlBytes)
        .add("btrace_bytes", btraceBytes)
        .add("compression_x", ratio, 1)
        .add("checksum", jsonlBytes + btraceBytes)
        .add("jsonl_read_ns_per_event", jsonlReadNs)
        .add("btrace_read_ns_per_event", btraceReadNs);
    line.print();
    return 0;
}
