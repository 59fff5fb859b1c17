/**
 * @file
 * quetzal_sim — the one command-line front door. It calls the engines
 * directly: sim::ParallelRunner::runBatch() for one experiment or a
 * seed ensemble, scenario::runScenarioFile() for a scenario or fleet
 * file. Experiment flags go through the scenario field table
 * (DESIGN.md section 10), so they accept exactly what a scenario file
 * does; a rejected flag value exits naming the flag and the value
 * (cli_flags.hpp).
 *
 * Run modes (mutually exclusive; flags that conflict are reported as
 * errors naming both flags, never silently ignored):
 *
 *   quetzal_sim [experiment flags]           one experiment
 *   quetzal_sim --ensemble N [flags]         seeds 1..N in parallel
 *   quetzal_sim --scenario FILE.json         declarative scenario
 *   quetzal_sim --fleet FILE.json            fleet scenario (the file
 *                                            must have a "fleet" block)
 *
 * --scenario runs a scenario file (see scenarios/ and DESIGN.md
 * sections 10 and 15) on the parallel engine; when the file has a
 * "fleet" block the sharded fleet engine runs it instead of the run
 * matrix. --fleet does the same but *requires* the block. --validate
 * parses + validates without running; invalid files list every
 * problem with its JSON field path and exit with status 1. --events
 * overrides every run-matrix event count (reduced smoke runs; the
 * fleet's workload comes from the spec's capture parameters) and
 * --jobs picks the worker count — outputs are byte-identical for
 * every value.
 *
 * --trace-out - writes the trace to stdout and the report or
 * ensemble summary to stderr, so stdout stays a readable trace; it
 * conflicts with --csv. Exit status 1 reports a lost write to a
 * trace, a CSV or stdout.
 *
 * --policy NAME runs a registered scheduling policy from the policy
 * zoo (src/policy) instead of a --controller configuration; it
 * overrides --controller when both are given. "sjf-ibo" is the
 * ported incumbent and reproduces --controller QZ byte-for-byte.
 *
 * Examples:
 *   quetzal_sim --controller QZ --env crowded --events 1000
 *   quetzal_sim --policy zygarde --env crowded --events 1000
 *   quetzal_sim --controller QZ --ensemble 20 --jobs 8
 *   quetzal_sim --events 200 --trace-out run.jsonl
 *   quetzal_sim --scenario scenarios/fig09.json --jobs 4
 *   quetzal_sim --fleet scenarios/fleet_day.json --jobs 8
 *   quetzal_sim --scenario scenarios/fleet_day.json --validate
 *   quetzal_sim --fleet scenarios/fleet_day.json \
 *       --fleet-checkpoint day.qzck --fleet-stop-after-s 43200
 *   quetzal_sim --fleet scenarios/fleet_day.json \
 *       --fleet-resume day.qzck --fleet-checkpoint day.qzck
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "cli_flags.hpp"
#include "obs/btrace.hpp"
#include "obs/trace_io.hpp"
#include "scenario/engine.hpp"
#include "sim/checkpoint.hpp"
#include "sim/ensemble.hpp"
#include "sim/experiment.hpp"
#include "sim/runner.hpp"
#include "util/logging.hpp"

namespace {

using namespace quetzal;
using cli::checkedNumber;

[[noreturn]] void
usage(const char *argv0, bool requested)
{
    std::FILE *out = requested ? stdout : stderr;
    std::fprintf(out,
        "usage: %s [mode] [flags]\n"
        "\n"
        "Run modes (choose one):\n"
        "  (default)              one experiment from the flags below\n"
        "  --ensemble N           seeds 1..N of the experiment, in "
        "parallel\n"
        "  --scenario FILE.json   declarative scenario file "
        "(populations x sweep,\n"
        "                         or the fleet engine when the file "
        "has a \"fleet\" block)\n"
        "  --fleet FILE.json      fleet scenario; the file must have "
        "a \"fleet\" block\n"
        "\n"
        "Scenario & fleet:\n"
        "  --validate             parse + validate FILE and print the "
        "plan, don't run\n"
        "  --events N             override every run-matrix event "
        "count (smoke runs);\n"
        "                         the fleet engine takes its workload "
        "from the file\n"
        "\n"
        "Experiment configuration (conflicts with --scenario/--fleet):"
        "\n"
        "  --controller KIND      QZ|QZ-FCFS|QZ-LCFS|QZ-AvgSe2e|NA|AD|"
        "CN|THR|PZO|PZI|Ideal\n"
        "  --policy NAME          sjf-ibo|zygarde|delgado-famaey|"
        "greedy-fcfs\n"
        "  --env ENV              more-crowded|crowded|less-crowded|"
        "msp430\n"
        "  --device DEV           apollo4|msp430\n"
        "  --events N             sensing events per run\n"
        "  --seed N               master RNG seed\n"
        "  --buffer N             input-buffer capacity\n"
        "  --cells N              harvester cell count\n"
        "  --capture-period-ms N  capture period\n"
        "  --threshold PCT        THR controller buffer threshold\n"
        "  --arrival-window N     arrival-rate tracking window\n"
        "  --task-window N        service-time tracking window\n"
        "  --power-trace FILE.csv piecewise-constant power trace\n"
        "  --no-pid               disable the PID assist\n"
        "  --no-circuit           disable the analog monitor circuit\n"
        "\n"
        "Telemetry (experiment modes):\n"
        "  --trace-out FILE|-     stream the typed event trace (\"-\":\n"
        "                         stdout; the report goes to stderr)\n"
        "  --trace-level LVL      off|counters|decisions|full "
        "(default full)\n"
        "  --trace-format FMT     jsonl|chrome|btrace (btrace streams "
        "to disk\n"
        "                         with bounded memory)\n"
        "  --telemetry-cost-s X   modeled seconds charged per recorded "
        "event\n"
        "  --telemetry-cost-j X   modeled joules charged per recorded "
        "event\n"
        "\n"
        "Checkpoint / resume (single-experiment mode):\n"
        "  --checkpoint FILE      start a QZCK stream; each checkpoint "
        "boundary\n"
        "                         appends a record (~0.7-2 KB)\n"
        "  --checkpoint-every N   captures between checkpoints "
        "(default 1000)\n"
        "  --checkpoint-stop      exit right after the first "
        "checkpoint saves,\n"
        "                         printing no report\n"
        "  --resume FILE          resume from the stream's last "
        "complete record,\n"
        "                         written by an identically-configured "
        "run\n"
        "\n"
        "Fleet checkpoint / resume (--scenario/--fleet with a "
        "\"fleet\" block):\n"
        "  --fleet-checkpoint FILE    append a QZCK snapshot stream at "
        "coordinator\n"
        "                             barriers (resume keeps the whole "
        "stream)\n"
        "  --fleet-checkpoint-every N snapshot every N barriers "
        "(default: the\n"
        "                             file's fleet.checkpoint_slabs); "
        "the final\n"
        "                             barrier always snapshots\n"
        "  --fleet-stop-after-s T     halt cleanly at the first "
        "barrier at or past\n"
        "                             T simulated seconds (crash-drill "
        "half runs)\n"
        "  --fleet-resume FILE        resume from the stream's last "
        "complete\n"
        "                             record; outputs continue "
        "byte-identically\n"
        "  --fleet-ckpt-trace FILE    write checkpoint/restore episode "
        "events\n"
        "                             (JSONL), kept out of the run "
        "trace\n"
        "\n"
        "Output (experiment modes):\n"
        "  --csv                  one CSV row per run instead of the "
        "report\n"
        "  --csv-header           --csv plus the header line\n"
        "\n"
        "Execution:\n"
        "  --jobs N               worker threads (default: hardware "
        "cores, or\n"
        "                         QUETZAL_JOBS); every output is "
        "byte-identical\n"
        "                         for every value\n",
        argv0);
    std::exit(requested ? 0 : 2);
}

/** Conflicting flags are an error naming both, never a silent win. */
[[noreturn]] void
conflict(const std::string &flag, const std::string &other,
         const char *why)
{
    std::fprintf(stderr,
                 "conflicting flags: %s cannot be combined with %s "
                 "(%s)\n",
                 flag.c_str(), other.c_str(), why);
    std::exit(2);
}

void
csvHeader()
{
    std::printf(
        "controller,environment,device,events,seed,"
        "nominal_interesting,discarded_total,discarded_pct,"
        "ibo_interesting,fn_discards,tx_interesting_hq,"
        "tx_interesting_lq,tx_uninteresting,hq_share,"
        "jobs,degraded_jobs,power_failures,recharge_s\n");
}

void
csvRow(const sim::ExperimentConfig &cfg, const std::string &environment,
       const sim::Metrics &m)
{
    std::printf(
        "%s,%s,%s,%zu,%llu,%llu,%llu,%.4f,%llu,%llu,%llu,%llu,"
        "%llu,%.4f,%llu,%llu,%llu,%.1f\n",
        sim::experimentLabel(cfg).c_str(), environment.c_str(),
        app::deviceKindName(cfg.device).c_str(), cfg.eventCount,
        static_cast<unsigned long long>(cfg.seed),
        static_cast<unsigned long long>(m.interestingInputsNominal),
        static_cast<unsigned long long>(
            m.interestingDiscardedTotal()),
        m.interestingDiscardedPct(),
        static_cast<unsigned long long>(m.iboDropsInteresting +
                                        m.unprocessedInteresting),
        static_cast<unsigned long long>(m.fnDiscards),
        static_cast<unsigned long long>(m.txInterestingHq),
        static_cast<unsigned long long>(m.txInterestingLq),
        static_cast<unsigned long long>(m.txUninterestingHq +
                                        m.txUninterestingLq),
        m.highQualityShare(),
        static_cast<unsigned long long>(m.jobsCompleted),
        static_cast<unsigned long long>(m.degradedJobs),
        static_cast<unsigned long long>(m.powerFailures),
        ticksToSeconds(m.rechargeTicks));
}

/** Flush stdout; fatal when any report or CSV write to it failed. */
void
checkStdout()
{
    std::cout.flush();
    if (!std::cout || std::fflush(stdout) != 0 || std::ferror(stdout))
        util::fatal("error writing standard output");
}

int
runCli(int argc, char **argv)
{
    sim::ExperimentConfig cfg;
    scenario::EngineOptions engine; ///< jobs, and --scenario/--fleet
    std::string scenarioPath;
    bool csv = false;
    bool header = false;
    std::size_t ensembleRuns = 0;
    std::string environment = "crowded";
    std::string traceOut;
    std::string traceFormat = "jsonl";
    obs::ObsLevel traceLevel = obs::ObsLevel::Full;

    // Flag provenance for conflict diagnostics: the mode flag, and
    // the first flag seen from each conflicting group.
    std::string modeFlag;       ///< --scenario or --fleet
    std::string configFlag;     ///< first experiment-config flag
    std::string traceFlag;      ///< first --trace-* flag
    std::string outputFlag;     ///< --csv / --csv-header
    std::string checkpointFlag; ///< first --checkpoint*/--resume flag
    std::string fleetCkptFlag;  ///< first --fleet-checkpoint*/--fleet-* flag

    std::string checkpointOut;
    std::uint64_t checkpointEvery = 1000;
    bool checkpointStop = false;
    std::string resumePath;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const cli::ConfigFlag *row = std::find_if(
            std::begin(cli::kConfigFlags), std::end(cli::kConfigFlags),
            [&](const cli::ConfigFlag &flag) { return arg == flag.flag; });
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0], false);
            return argv[++i];
        };
        auto configArg = [&]() {
            if (configFlag.empty())
                configFlag = arg;
        };
        if (arg == "--scenario" || arg == "--fleet") {
            if (!modeFlag.empty() && modeFlag != arg)
                conflict(arg, modeFlag,
                         "give one scenario file in one mode");
            modeFlag = arg;
            engine.requireFleet = arg == "--fleet";
            scenarioPath = value();
        } else if (arg == "--validate") {
            engine.validateOnly = true;
        } else if (row != std::end(cli::kConfigFlags)) {
            const std::string text =
                row->value == cli::FlagValue::False ? "" : value();
            cli::applyConfigFlag(*row, text, cfg);
            // --events doubles as the scenario smoke override, so it
            // is deliberately not an experiment-config flag here.
            if (arg == "--events")
                engine.eventCountOverride = cfg.eventCount;
            else
                configArg();
            if (arg == "--env")
                environment = text;
        } else if (arg == "--ensemble") {
            ensembleRuns =
                checkedNumber<std::size_t>(arg, value(), 1, 1'000'000);
        } else if (arg == "--jobs") {
            engine.jobs = checkedNumber<unsigned>(arg, value(), 0);
        } else if (arg == "--trace-out") {
            traceFlag = arg;
            traceOut = value();
        } else if (arg == "--trace-level") {
            traceFlag = traceFlag.empty() ? arg : traceFlag;
            const std::string name = value();
            const auto level = obs::parseObsLevel(name);
            if (!level)
                util::fatal(util::msg("unknown trace level: ", name));
            traceLevel = *level;
        } else if (arg == "--trace-format") {
            traceFlag = traceFlag.empty() ? arg : traceFlag;
            traceFormat = value();
            if (traceFormat != "jsonl" && traceFormat != "chrome" &&
                traceFormat != "btrace")
                util::fatal(util::msg("unknown trace format: ",
                                      traceFormat));
        } else if (arg == "--telemetry-cost-s") {
            configArg();
            cfg.sim.telemetrySecondsPerEvent =
                checkedNumber<double>(arg, value(), 0.0);
        } else if (arg == "--telemetry-cost-j") {
            configArg();
            cfg.sim.telemetryEnergyPerEvent =
                checkedNumber<double>(arg, value(), 0.0);
        } else if (arg == "--checkpoint") {
            checkpointFlag = checkpointFlag.empty() ? arg : checkpointFlag;
            checkpointOut = value();
        } else if (arg == "--checkpoint-every") {
            checkpointFlag = checkpointFlag.empty() ? arg : checkpointFlag;
            checkpointEvery =
                checkedNumber<std::uint64_t>(arg, value(), 1);
        } else if (arg == "--checkpoint-stop") {
            checkpointFlag = checkpointFlag.empty() ? arg : checkpointFlag;
            checkpointStop = true;
        } else if (arg == "--resume") {
            checkpointFlag = checkpointFlag.empty() ? arg : checkpointFlag;
            resumePath = value();
        } else if (arg == "--fleet-checkpoint") {
            fleetCkptFlag = fleetCkptFlag.empty() ? arg : fleetCkptFlag;
            engine.fleetCheckpointPath = value();
        } else if (arg == "--fleet-checkpoint-every") {
            fleetCkptFlag = fleetCkptFlag.empty() ? arg : fleetCkptFlag;
            engine.fleetCheckpointEverySlabs =
                checkedNumber<unsigned>(arg, value(), 1);
        } else if (arg == "--fleet-stop-after-s") {
            fleetCkptFlag = fleetCkptFlag.empty() ? arg : fleetCkptFlag;
            engine.fleetStopAfterSeconds = checkedNumber<long long>(
                arg, value(), 1,
                std::numeric_limits<Tick>::max() / kTicksPerSecond);
        } else if (arg == "--fleet-resume") {
            fleetCkptFlag = fleetCkptFlag.empty() ? arg : fleetCkptFlag;
            engine.fleetResumePath = value();
        } else if (arg == "--fleet-ckpt-trace") {
            fleetCkptFlag = fleetCkptFlag.empty() ? arg : fleetCkptFlag;
            engine.fleetEpisodeTracePath = value();
        } else if (arg == "--csv") {
            outputFlag = outputFlag.empty() ? arg : outputFlag;
            csv = true;
        } else if (arg == "--csv-header") {
            outputFlag = outputFlag.empty() ? arg : outputFlag;
            csv = true;
            header = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0], true);
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            usage(argv[0], false);
        }
    }

    if (!modeFlag.empty()) {
        if (!configFlag.empty())
            conflict(configFlag, modeFlag,
                     "scenario files define their own device "
                     "populations");
        if (ensembleRuns > 0)
            conflict("--ensemble", modeFlag,
                     "scenario files define their own run matrix");
        if (!outputFlag.empty())
            conflict(outputFlag, modeFlag,
                     "scenario outputs are configured in the file's "
                     "\"output\" block");
        if (!traceFlag.empty())
            conflict(traceFlag, modeFlag,
                     "scenario traces are configured in the file's "
                     "\"output.trace\" block");
        if (!checkpointFlag.empty())
            conflict(checkpointFlag, modeFlag,
                     "single-experiment checkpointing; fleet runs "
                     "take --fleet-checkpoint/--fleet-resume");
        if (!fleetCkptFlag.empty() && engine.validateOnly)
            conflict(fleetCkptFlag, "--validate",
                     "--validate never runs, so there is nothing to "
                     "checkpoint or resume");
    } else if (engine.validateOnly) {
        util::fatal(
            "--validate requires --scenario or --fleet FILE.json");
    } else if (!fleetCkptFlag.empty()) {
        util::fatal(util::msg(
            fleetCkptFlag,
            " requires --scenario or --fleet FILE.json (the "
            "single-experiment flags are --checkpoint/--resume)"));
    }

    if (!fleetCkptFlag.empty()) {
        if (engine.fleetCheckpointEverySlabs > 0 &&
            engine.fleetCheckpointPath.empty())
            util::fatal("--fleet-checkpoint-every requires "
                        "--fleet-checkpoint FILE");
        const bool fleetStream = !engine.fleetCheckpointPath.empty() ||
            !engine.fleetResumePath.empty();
        if (engine.fleetStopAfterSeconds > 0 && !fleetStream)
            util::fatal("--fleet-stop-after-s requires "
                        "--fleet-checkpoint or --fleet-resume");
        if (!engine.fleetEpisodeTracePath.empty() && !fleetStream)
            util::fatal("--fleet-ckpt-trace requires "
                        "--fleet-checkpoint or --fleet-resume");
    }

    if (!checkpointFlag.empty()) {
        if (ensembleRuns > 0)
            conflict(checkpointFlag, "--ensemble",
                     "checkpoint/resume is a single-experiment "
                     "feature");
        if (checkpointStop && checkpointOut.empty())
            util::fatal("--checkpoint-stop requires --checkpoint FILE");
        if (checkpointOut.empty() && resumePath.empty())
            util::fatal(
                "--checkpoint-every requires --checkpoint FILE");
    }

    if (!modeFlag.empty()) {
        return scenario::runScenarioFile(scenarioPath, engine);
    }

    if (traceOut == "-" && !outputFlag.empty())
        conflict(outputFlag, "--trace-out -",
                 "the trace is written to stdout");
    // A trace on stdout leaves the human-readable output to stderr.
    std::ostream &report = traceOut == "-" ? std::cerr : std::cout;
    const bool tracing = !traceOut.empty() &&
        traceLevel != obs::ObsLevel::Off;

    if (ensembleRuns > 0) {
        // Seeds 1..N as one batch. Per-seed CSV rows print in seed
        // order; the summary aggregates in seed order — both
        // independent of --jobs. When tracing, every seed records
        // into its own sink (no locks on the hot path) and the sinks
        // are serialized in seed order after the joins.
        std::vector<obs::VectorSink> sinks(tracing ? ensembleRuns : 0);
        std::vector<sim::ExperimentConfig> batch;
        batch.reserve(ensembleRuns);
        for (std::size_t i = 0; i < ensembleRuns; ++i) {
            sim::ExperimentConfig seedCfg = cfg;
            seedCfg.seed = i + 1;
            if (tracing) {
                seedCfg.obsLevel = traceLevel;
                seedCfg.obsSink = &sinks[i];
            }
            batch.push_back(std::move(seedCfg));
        }

        const std::vector<sim::Metrics> metrics =
            sim::ParallelRunner(engine.jobs).runBatch(batch);

        if (csv) {
            if (header)
                csvHeader();
            for (std::size_t i = 0; i < metrics.size(); ++i)
                csvRow(batch[i], environment, metrics[i]);
        } else {
            sim::aggregateEnsemble(metrics)
                .printSummary(report, sim::experimentLabel(cfg));
        }
        if (tracing)
            obs::writeTraceFile(traceOut, traceFormat, sinks);
        return 0;
    }

    // Checkpoint/resume plumbing — the fingerprint is computed after
    // every configuration flag has landed, the trace level included
    // (it shapes the state), so a mismatched record is rejected with
    // both fingerprints named. Under --checkpoint-stop the sink fires
    // once, and the run ends at that boundary.
    if (tracing)
        cfg.obsLevel = traceLevel;
    const std::uint64_t fingerprint = sim::experimentFingerprint(cfg);
    sim::CheckpointScan resumed;
    if (!resumePath.empty()) {
        resumed = sim::readCheckpointStream(resumePath, fingerprint);
        cfg.sim.resumeState = &resumed.last.state;
    }
    std::optional<Tick> stoppedAt;
    if (!checkpointOut.empty()) {
        cfg.sim.checkpointEveryCaptures = checkpointEvery;
        cfg.sim.checkpointStop = checkpointStop;
        cfg.sim.checkpointSink =
            [append = sim::openCheckpointStream(checkpointOut, fingerprint,
                                                resumePath, resumed),
             &stoppedAt, checkpointStop](std::string &&state, Tick now) {
                append(state, now);
                if (checkpointStop)
                    stoppedAt = now;
            };
    }

    // btrace is written while the run executes, one ~64 KiB chunk
    // at a time; the text formats buffer into a VectorSink and
    // serialize after the run.
    std::vector<obs::VectorSink> sinks;
    std::ofstream btraceFile;
    std::ostream *btraceOut = nullptr;
    std::optional<obs::BtraceWriter> btraceWriter;
    if (tracing) {
        if (traceFormat == "btrace") {
            btraceOut = &obs::openTraceOutput(traceOut, btraceFile);
            btraceWriter.emplace(*btraceOut);
            cfg.obsSink = &*btraceWriter;
        } else {
            sinks.resize(1);
            cfg.obsSink = &sinks[0];
        }
    }

    const sim::Metrics m =
        sim::ParallelRunner(engine.jobs).runBatch({cfg}).front();

    if (stoppedAt) {
        // A partial run prints no report: its stdout stays a strict
        // prefix of the straight run's, as a halted fleet's does.
        std::fprintf(stderr,
                     "stopped at checkpoint boundary tick %lld; resume "
                     "with --resume %s\n",
                     static_cast<long long>(*stoppedAt),
                     checkpointOut.c_str());
    } else if (csv) {
        if (header)
            csvHeader();
        csvRow(cfg, environment, m);
    } else {
        m.printReport(report, sim::experimentLabel(cfg));
    }
    if (btraceWriter) {
        btraceWriter->finish();
        obs::checkTraceOutput(*btraceOut, traceOut);
    } else if (tracing) {
        obs::writeTraceFile(traceOut, traceFormat, sinks);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const int status = runCli(argc, argv);
    checkStdout();
    return status;
}
