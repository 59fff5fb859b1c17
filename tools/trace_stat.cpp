/**
 * @file
 * trace_stat — offline analyzer for traces written by
 * `quetzal-sim --trace-out`, in either trace format: JSONL or the
 * binary quetzal-btrace-v1. The format is sniffed from the first
 * bytes and both stream through one obs::TraceCursor, so a
 * billion-event trace replays in bounded memory — the file is never
 * materialized.
 *
 * Replays each run's event stream through an obs::MetricsRegistry —
 * the same replay implementation the live aggregation and the test
 * suite use — and prints, per run and in aggregate:
 *
 *   - headline lifecycle counters (captures, stores, IBO drops,
 *     FN/FP, transmissions), reconstructed purely from the trace;
 *   - IBO prediction accuracy: precision/recall over the per-decision
 *     prediction-vs-observed-outcome confusion matrix;
 *   - service-time / queue-depth / prediction-error quantiles from
 *     the streaming histograms;
 *   - per-option-pattern degradation counts.
 *
 * Usage:
 *   trace_stat [--run N] [--per-run] [--kinds] [FILE|-]
 *
 * Reads stdin when FILE is omitted or "-". --run N restricts to one
 * run index; --per-run prints a summary per run before the
 * aggregate; --kinds appends a per-kind event census.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "cli_flags.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_cursor.hpp"
#include "util/logging.hpp"

namespace {

using namespace quetzal;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--run N] [--per-run] [--kinds] [FILE|-]\n",
                 argv0);
    std::exit(2);
}

void
printKindCensus(std::ostream &out, const obs::MetricsRegistry &registry)
{
    out << "  events by kind:";
    for (std::size_t i = 0; i < obs::kEventKindCount; ++i) {
        const auto kind = static_cast<obs::EventKind>(i);
        const std::uint64_t n = registry.eventCount(kind);
        if (n > 0)
            out << " " << obs::eventKindName(kind) << "=" << n;
    }
    out << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    bool perRun = false;
    bool kinds = false;
    bool filterRun = false;
    std::uint64_t runFilter = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--run") {
            if (i + 1 >= argc)
                usage(argv[0]);
            filterRun = true;
            runFilter = cli::checkedNumber<std::uint64_t>(
                arg, argv[++i], 0);
        } else if (arg == "--per-run") {
            perRun = true;
        } else if (arg == "--kinds") {
            kinds = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
        } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            usage(argv[0]);
        } else if (path.empty()) {
            path = arg;
        } else {
            usage(argv[0]);
        }
    }

    std::ifstream file;
    std::istream *in = &std::cin;
    if (!path.empty() && path != "-") {
        // Binary-safe open; harmless for JSONL (getline still splits
        // on '\n' and the writers never emit '\r').
        file.open(path, std::ios::binary);
        if (!file)
            util::fatal(util::msg("cannot open trace: ", path));
        in = &file;
    }

    // Stream the file — one record in flight, never the whole run.
    // Replay every run through its own registry (runs are independent
    // streams) plus one combined registry for the aggregate view.
    // std::map keeps the per-run output in run-index order.
    const auto cursor =
        obs::openTraceCursor(*in, path.empty() ? "<stdin>" : path);
    std::map<std::uint64_t, obs::MetricsRegistry> byRun;
    obs::MetricsRegistry combined;
    obs::TraceRecord record;
    while (cursor->next(record)) {
        if (filterRun && record.run != runFilter)
            continue;
        byRun[record.run].record(record.event);
        combined.record(record.event);
    }

    if (byRun.empty()) {
        std::cout << "no events"
                  << (filterRun ?
                      util::msg(" for run ", runFilter) : std::string())
                  << "\n";
        return filterRun ? 1 : 0;
    }

    if (perRun && byRun.size() > 1) {
        for (const auto &entry : byRun) {
            entry.second.printSummary(
                std::cout, util::msg("run ", entry.first));
            if (kinds)
                printKindCensus(std::cout, entry.second);
        }
    }

    const std::string label = byRun.size() == 1 ?
        util::msg("run ", byRun.begin()->first) :
        util::msg(byRun.size(), " runs");
    combined.printSummary(std::cout, label);
    if (kinds)
        printKindCensus(std::cout, combined);
    return 0;
}
