#include "scenario/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "fleet/checkpoint.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_io.hpp"
#include "obs/trace_sink.hpp"
#include "sim/checkpoint.hpp"
#include "sim/ensemble.hpp"
#include "sim/runner.hpp"
#include "util/logging.hpp"

namespace quetzal {
namespace scenario {

namespace {

/** Metrics of one cell's populations, by population index. */
const sim::Metrics &
metricsFor(const ScenarioPlan &plan,
           const std::vector<sim::Metrics> &results, std::size_t cell,
           std::size_t population)
{
    return results[cell * plan.populationCount + population];
}

std::size_t
populationIndex(const ScenarioPlan &plan, const std::string &name)
{
    for (std::size_t i = 0; i < plan.spec.populations.size(); ++i) {
        if (plan.spec.populations[i].name == name)
            return i;
    }
    util::panic(util::msg("unvalidated population reference: ", name));
}

double
evalTerm(const ScenarioPlan &plan,
         const std::vector<sim::Metrics> &results, std::size_t cell,
         const ReportTerm &term)
{
    const sim::Metrics &subject = metricsFor(
        plan, results, cell, populationIndex(plan, term.subject));
    if (term.metric == "hq_share_pct")
        return 100.0 * subject.highQualityShare();
    const sim::Metrics &baseline = metricsFor(
        plan, results, cell, populationIndex(plan, term.baseline));
    if (term.metric == "discard_ratio")
        return sim::discardRatio(baseline, subject);
    if (term.metric == "ibo_ratio")
        return sim::iboRatio(baseline, subject);
    if (term.metric == "tx_share_pct")
        return 100.0 *
            static_cast<double>(subject.txInterestingTotal()) /
            static_cast<double>(std::max<std::uint64_t>(
                baseline.txInterestingTotal(), 1));
    util::panic(util::msg("unvalidated report metric: ", term.metric));
}

/**
 * Render a loaded report format string: literal text plus one
 * %...f conversion per value (and %% escapes), all the loader
 * accepts.
 */
std::string
renderLine(const std::string &format, const std::vector<double> &values)
{
    std::string out;
    std::size_t next = 0;
    for (std::size_t i = 0; i < format.size(); ++i) {
        if (format[i] != '%') {
            out += format[i];
            continue;
        }
        if (format[i + 1] == '%') {
            out += '%';
            ++i;
            continue;
        }
        std::size_t j = i + 1;
        while (format[j] != 'f')
            ++j;
        const std::string conversion = format.substr(i, j - i + 1);
        char buf[64];
        std::snprintf(buf, sizeof buf, conversion.c_str(),
                      values[next++]);
        out += buf;
        i = j;
    }
    return out;
}

void
printCellHeader(const CellInfo &cell)
{
    if (!cell.label.empty())
        std::printf("\n-- %s --\n", cell.label.c_str());
}

void
printReport(const ScenarioPlan &plan,
            const std::vector<sim::Metrics> &results)
{
    const ReportSpec &report = plan.spec.report;
    std::printf("\n=== %s ===\n", report.banner.c_str());
    for (std::size_t c = 0; c < plan.cells.size(); ++c) {
        printCellHeader(plan.cells[c]);
        sim::printDiscardTableHeader();
        for (const ReportRow &row : report.rows)
            sim::printDiscardTableRow(
                row.population,
                metricsFor(plan, results, c,
                           populationIndex(plan, row.population)));
        for (const ReportLine &line : report.lines) {
            std::vector<double> values;
            values.reserve(line.terms.size());
            for (const ReportTerm &term : line.terms)
                values.push_back(evalTerm(plan, results, c, term));
            const std::string text = renderLine(line.format, values);
            std::printf("%s\n", text.c_str());
        }
    }
}

void
printSummary(const ScenarioPlan &plan,
             const std::vector<sim::Metrics> &results)
{
    std::printf("scenario: %s (%zu runs)\n",
                plan.spec.name.empty() ? "(unnamed)"
                                       : plan.spec.name.c_str(),
                plan.runs.size());
    for (std::size_t c = 0; c < plan.cells.size(); ++c) {
        printCellHeader(plan.cells[c]);
        sim::printDiscardTableHeader();
        for (std::size_t p = 0; p < plan.populationCount; ++p)
            sim::printDiscardTableRow(
                plan.spec.populations[p].name,
                metricsFor(plan, results, c, p));
    }
}

/** One population's standings in a league table. */
struct LeagueRow
{
    std::string name;
    std::uint64_t served = 0;   ///< jobs completed
    std::uint64_t ibo = 0;      ///< buffer-overflow drops (all inputs)
    std::uint64_t misses = 0;   ///< staleness-deadline misses
    double wastedJoules = 0.0;  ///< harvest rejected on a full store
};

void
accumulate(LeagueRow &row, const sim::Metrics &m)
{
    row.served += m.jobsCompleted;
    row.ibo += m.iboDropsInteresting + m.iboDropsUninteresting;
    row.misses += m.deadlineMisses;
    row.wastedJoules += m.energyWastedJoules;
}

/**
 * Deterministic standings order: most jobs served first, overflow
 * drops, deadline misses and wasted energy as successive tie
 * breakers, population name as the total-order backstop.
 */
void
sortLeague(std::vector<LeagueRow> &rows)
{
    std::sort(rows.begin(), rows.end(),
              [](const LeagueRow &a, const LeagueRow &b) {
            if (a.served != b.served)
                return a.served > b.served;
            if (a.ibo != b.ibo)
                return a.ibo < b.ibo;
            if (a.misses != b.misses)
                return a.misses < b.misses;
            if (a.wastedJoules != b.wastedJoules)
                return a.wastedJoules < b.wastedJoules;
            return a.name < b.name;
        });
}

void
printLeagueTable(const std::vector<LeagueRow> &rows)
{
    std::printf("%4s  %-16s %10s %8s %8s %12s\n", "rank", "policy",
                "served", "ibo", "misses", "wasted-J");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const LeagueRow &row = rows[i];
        std::printf("%4zu  %-16s %10llu %8llu %8llu %12.4f\n", i + 1,
                    row.name.c_str(),
                    static_cast<unsigned long long>(row.served),
                    static_cast<unsigned long long>(row.ibo),
                    static_cast<unsigned long long>(row.misses),
                    row.wastedJoules);
    }
}

void
printLeague(const ScenarioPlan &plan,
            const std::vector<sim::Metrics> &results)
{
    std::printf("\n=== league: %s ===\n",
                plan.spec.name.empty() ? "(unnamed)"
                                       : plan.spec.name.c_str());
    std::vector<LeagueRow> fleet(plan.populationCount);
    for (std::size_t p = 0; p < plan.populationCount; ++p)
        fleet[p].name = plan.spec.populations[p].name;

    for (std::size_t c = 0; c < plan.cells.size(); ++c) {
        printCellHeader(plan.cells[c]);
        std::vector<LeagueRow> rows(plan.populationCount);
        for (std::size_t p = 0; p < plan.populationCount; ++p) {
            rows[p].name = plan.spec.populations[p].name;
            const sim::Metrics &m = metricsFor(plan, results, c, p);
            accumulate(rows[p], m);
            accumulate(fleet[p], m);
        }
        sortLeague(rows);
        printLeagueTable(rows);
    }

    std::printf("\n-- fleet (%zu cells) --\n", plan.cells.size());
    sortLeague(fleet);
    printLeagueTable(fleet);
}

void
writeCsv(const ScenarioPlan &plan,
         const std::vector<sim::Metrics> &results)
{
    const std::string &path = plan.spec.output.csvPath;
    std::ofstream file;
    std::ostream &out = obs::openTraceOutput(path, file, "csv output");
    out << "scenario,cell,population,controller,events,seed,"
           "nominal_interesting,discarded_total,discarded_pct,"
           "ibo_interesting,fn_discards,tx_interesting_hq,"
           "tx_interesting_lq,hq_share,jobs,degraded_jobs,"
           "power_failures\n";
    for (const RunSpec &run : plan.runs) {
        const sim::Metrics &m =
            results[run.cellIndex * plan.populationCount +
                    run.populationIndex];
        // 13 numeric fields of at most 20 characters each.
        char numbers[320];
        std::snprintf(
            numbers, sizeof numbers,
            "%zu,%llu,%llu,%llu,%.4f,%llu,%llu,%llu,"
            "%llu,%.4f,%llu,%llu,%llu\n",
            run.config.eventCount,
            static_cast<unsigned long long>(run.config.seed),
            static_cast<unsigned long long>(
                m.interestingInputsNominal),
            static_cast<unsigned long long>(
                m.interestingDiscardedTotal()),
            m.interestingDiscardedPct(),
            static_cast<unsigned long long>(m.iboDropsInteresting +
                                            m.unprocessedInteresting),
            static_cast<unsigned long long>(m.fnDiscards),
            static_cast<unsigned long long>(m.txInterestingHq),
            static_cast<unsigned long long>(m.txInterestingLq),
            m.highQualityShare(),
            static_cast<unsigned long long>(m.jobsCompleted),
            static_cast<unsigned long long>(m.degradedJobs),
            static_cast<unsigned long long>(m.powerFailures));
        out << plan.spec.name << ',' << plan.cells[run.cellIndex].label
            << ',' << run.population << ','
            << sim::experimentLabel(run.config) << ',' << numbers;
    }
    obs::checkTraceOutput(out, path, "csv output");
}

void
printRollup(const ScenarioPlan &plan,
            const std::vector<sim::Metrics> &results,
            const std::vector<obs::VectorSink> &sinks)
{
    // Fleet-wide registry: every run's event stream, in run order.
    obs::MetricsRegistry fleet;
    for (const obs::VectorSink &sink : sinks) {
        for (const obs::Event &event : sink.events())
            fleet.record(event);
    }
    fleet.printSummary(std::cout, "fleet");

    // Per-population ensemble statistics, in population order; each
    // population's runs aggregate in cell order.
    for (std::size_t p = 0; p < plan.populationCount; ++p) {
        std::vector<sim::Metrics> populationMetrics;
        populationMetrics.reserve(plan.cells.size());
        for (std::size_t c = 0; c < plan.cells.size(); ++c)
            populationMetrics.push_back(
                metricsFor(plan, results, c, p));
        sim::aggregateEnsemble(populationMetrics)
            .printSummary(std::cout,
                          plan.spec.populations[p].name);
    }
}

} // namespace

std::vector<sim::Metrics>
runPlan(const ScenarioPlan &plan, const EngineOptions &options)
{
    const OutputSpec &output = plan.spec.output;
    const bool tracing = output.trace.has_value() &&
        output.trace->level != obs::ObsLevel::Off;

    // Telemetry level: the trace request's, raised to Counters when
    // the rollup needs event streams; Off otherwise (zero overhead).
    obs::ObsLevel level = obs::ObsLevel::Off;
    if (tracing)
        level = output.trace->level;
    if (output.rollup && level < obs::ObsLevel::Counters)
        level = obs::ObsLevel::Counters;

    std::vector<obs::VectorSink> sinks(
        level != obs::ObsLevel::Off ? plan.runs.size() : 0);

    std::vector<sim::ExperimentConfig> configs;
    configs.reserve(plan.runs.size());
    for (std::size_t i = 0; i < plan.runs.size(); ++i) {
        sim::ExperimentConfig config = plan.runs[i].config;
        if (options.eventCountOverride != 0)
            config.eventCount = options.eventCountOverride;
        if (!sinks.empty()) {
            config.obsLevel = level;
            config.obsSink = &sinks[i];
        }
        configs.push_back(std::move(config));
    }

    sim::ParallelRunner runner(options.jobs);
    const std::vector<sim::Metrics> results = runner.runBatch(configs);

    // Output writers run serially, in a fixed order, over in-order
    // results: report/summary first (stdout), then the league table,
    // CSV, traces and the rollup.
    if (plan.spec.report.enabled)
        printReport(plan, results);
    const bool wantsSummary = output.summary ||
        (!plan.spec.report.enabled && output.csvPath.empty() &&
         !tracing && !output.rollup && !output.league);
    if (wantsSummary)
        printSummary(plan, results);
    if (output.league)
        printLeague(plan, results);
    if (!output.csvPath.empty())
        writeCsv(plan, results);
    if (tracing) {
        const TraceOutputSpec &trace = *plan.spec.output.trace;
        obs::writeTraceFile(trace.path, trace.format, sinks);
    }
    if (output.rollup)
        printRollup(plan, results, sinks);
    return results;
}

namespace {

/**
 * Run a validated spec's fleet block: fleet rollups and summaries to
 * stdout, rollup events into a sink when the spec requests traces or
 * the aggregate rollup.
 */
void
runFleetSpec(const ScenarioSpec &spec, const EngineOptions &options)
{
    const fleet::FleetConfig config = buildFleetConfig(spec);

    const bool tracing = spec.output.trace.has_value() &&
        spec.output.trace->level != obs::ObsLevel::Off;
    std::vector<obs::VectorSink> sinks(
        tracing || spec.output.rollup ? 1 : 0);

    fleet::FleetOptions fleetOptions;
    fleetOptions.jobs = options.jobs;
    fleetOptions.out = &std::cout;
    if (!sinks.empty())
        fleetOptions.sink = &sinks.front();

    const bool checkpointing = !options.fleetCheckpointPath.empty();
    const bool resuming = !options.fleetResumePath.empty();
    const std::uint64_t fingerprint = checkpointing || resuming
        ? fleet::fleetFingerprint(config)
        : 0;

    obs::VectorSink episodes;
    if (checkpointing || resuming)
        fleetOptions.episodeSink = &episodes;

    fleet::FleetState resumeState;
    sim::CheckpointScan scan;
    if (resuming) {
        scan = sim::readCheckpointStream(options.fleetResumePath,
                                         fingerprint);
        const Tick tick = scan.last.boundaryTick;
        if (!fleet::validBarrierTick(config, tick))
            util::fatal(util::msg(
                options.fleetResumePath,
                ": barrier epoch mismatch — checkpoint tick ", tick,
                " is not a coordinator barrier of this "
                "configuration"));
        std::string error;
        if (!fleet::decodeFleetState(scan.last.state, config,
                                     resumeState, error))
            util::fatal(util::msg(options.fleetResumePath,
                                  ": fleet resume failed: ", error));
        fleetOptions.resumeTick = tick;
        fleetOptions.resumeState = &resumeState;

        obs::Event restore;
        restore.kind = obs::EventKind::FleetRestore;
        restore.tick = tick;
        restore.id = fleet::barrierEpoch(config, tick);
        restore.value =
            static_cast<std::int64_t>(scan.last.state.size());
        restore.extra = static_cast<std::int64_t>(config.shards);
        if (scan.tornTail)
            restore.flags |= obs::kFlagTornTail;
        episodes.record(restore);
    }
    if (checkpointing) {
        fleetOptions.checkpointEverySlabs =
            options.fleetCheckpointEverySlabs > 0
                ? options.fleetCheckpointEverySlabs
                : static_cast<unsigned>(spec.fleet->checkpointSlabs);
        fleetOptions.checkpointSink = sim::openCheckpointStream(
            options.fleetCheckpointPath, fingerprint,
            options.fleetResumePath, scan);
    }
    if (options.fleetStopAfterSeconds > 0)
        fleetOptions.stopAfterTick =
            static_cast<Tick>(options.fleetStopAfterSeconds) *
            kTicksPerSecond;

    const fleet::FleetResult result =
        fleet::runFleet(config, fleetOptions);

    // A halted (chaos-preempted) run skips every post-run output —
    // its stdout stays a strict prefix of the straight run's, and
    // the resumed run writes the complete trace and summary.
    const bool halted = result.haltedAtTick > 0;
    if (tracing && !halted) {
        const TraceOutputSpec &trace = *spec.output.trace;
        obs::writeTraceFile(trace.path, trace.format, sinks);
    }
    if (spec.output.rollup && !halted) {
        obs::MetricsRegistry registry;
        for (const obs::Event &event : sinks.front().events())
            registry.record(event);
        registry.printSummary(std::cout, "fleet");
    }
    if (!options.fleetEpisodeTracePath.empty()) {
        const std::string &path = options.fleetEpisodeTracePath;
        std::ofstream file;
        std::ostream &out =
            obs::openTraceOutput(path, file, "episode trace");
        obs::writeJsonlHeader(out);
        obs::writeJsonl(out, episodes.events(), 0);
        obs::checkTraceOutput(out, path, "episode trace");
    }
}

} // namespace

int
runScenarioFile(const std::string &path, const EngineOptions &options)
{
    const auto reportErrors = [&](const std::vector<SpecError> &errors) {
        std::fprintf(stderr, "%s: invalid scenario (validation):\n",
                     path.c_str());
        for (const SpecError &error : errors)
            std::fprintf(stderr, "  %s\n", error.describe().c_str());
        return 1;
    };

    Expected<ScenarioSpec> spec = loadScenarioFile(path);
    if (!spec.ok())
        return reportErrors(spec.errors);

    if (options.requireFleet && !spec.value->fleet)
        return reportErrors(
            {{"fleet",
              "a fleet run needs a \"fleet\" block in the scenario"}});

    if (!spec.value->fleet &&
        (!options.fleetCheckpointPath.empty() ||
         !options.fleetResumePath.empty()))
        return reportErrors(
            {{"fleet",
              "--fleet-checkpoint/--fleet-resume need a \"fleet\" "
              "block; run-matrix scenarios do not checkpoint"}});

    if (spec.value->fleet) {
        if (options.validateOnly) {
            const fleet::FleetConfig config =
                buildFleetConfig(*spec.value);
            std::size_t devices = 0;
            for (const fleet::CohortConfig &cohort : config.cohorts)
                devices += cohort.devices;
            std::printf("%s: OK — fleet: %zu devices x %zu cohorts, "
                        "%u shards\n",
                        path.c_str(), devices, config.cohorts.size(),
                        config.shards);
            return 0;
        }
        // --events applies to run-matrix event traces; the fleet's
        // workload is set by the spec's capture/horizon parameters.
        runFleetSpec(*spec.value, options);
        return 0;
    }

    const ScenarioPlan plan = compileScenario(*spec.value);
    if (options.validateOnly) {
        std::printf("%s: OK — %zu cells x %zu populations = %zu "
                    "runs\n",
                    path.c_str(), plan.cells.size(), plan.populationCount,
                    plan.runs.size());
        return 0;
    }

    runPlan(plan, options);
    return 0;
}

fleet::FleetConfig
buildFleetConfig(const ScenarioSpec &spec)
{
    if (!spec.fleet)
        util::panic("buildFleetConfig: spec has no fleet block");
    const FleetSpec &fleetSpec = *spec.fleet;

    fleet::FleetConfig config;
    config.shards = static_cast<unsigned>(fleetSpec.shards);
    config.slabTicks =
        static_cast<Tick>(fleetSpec.slabSeconds) * kTicksPerSecond;
    config.horizonTicks =
        static_cast<Tick>(fleetSpec.horizonSeconds) * kTicksPerSecond;
    config.rollupTicks =
        static_cast<Tick>(fleetSpec.rollupSeconds) * kTicksPerSecond;
    config.solarSampleSeconds = fleetSpec.solarSampleSeconds;

    config.cohorts.reserve(fleetSpec.cohorts.size());
    for (const FleetCohortSpec &cohortSpec : fleetSpec.cohorts) {
        const PopulationSpec *population = nullptr;
        for (const PopulationSpec &candidate : spec.populations) {
            if (candidate.name == cohortSpec.population) {
                population = &candidate;
                break;
            }
        }
        if (population == nullptr)
            util::panic(util::msg(
                "unvalidated fleet population reference: ",
                cohortSpec.population));

        // Apply scenario defaults then the population's overrides
        // through the shared field table, and copy out the subset
        // the fleet honors — only for keys the spec actually set, so
        // unset fields keep the fleet-scale cohort defaults.
        sim::ExperimentConfig scratch;
        std::set<std::string> present;
        const auto applyAll =
            [&](const std::vector<Override> &overrides) {
                for (const Override &override : overrides) {
                    fields::applyField(override.field, override.value,
                                       scratch);
                    present.insert(override.field);
                }
            };
        applyAll(spec.defaults);
        applyAll(population->overrides);

        fleet::CohortConfig cohort;
        cohort.name = cohortSpec.name.empty() ? cohortSpec.population
                                              : cohortSpec.name;
        cohort.devices =
            static_cast<std::size_t>(cohortSpec.devices);
        cohort.taskTicks = static_cast<Tick>(cohortSpec.taskMs);
        cohort.taskPower = cohortSpec.taskMw * 1e-3;
        if (present.count("policy"))
            cohort.policy = scratch.policyName;
        if (present.count("device"))
            cohort.device = scratch.device;
        if (present.count("environment"))
            cohort.environment = scratch.environment;
        if (present.count("seed"))
            cohort.seed = scratch.seed;
        if (present.count("cells"))
            cohort.harvesterCells = scratch.harvesterCells;
        if (present.count("buffer"))
            cohort.bufferCapacity = static_cast<std::uint32_t>(
                scratch.sim.bufferCapacity);
        if (present.count("capture_period_ms"))
            cohort.capturePeriod = scratch.sim.capturePeriod;
        config.cohorts.push_back(std::move(cohort));
    }
    return config;
}

} // namespace scenario
} // namespace quetzal
