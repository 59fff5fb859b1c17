/**
 * @file
 * quetzal_trace_gen — generate the synthetic environment traces
 * (solar power CSV and sensing-event CSV) so users can inspect,
 * plot, edit or replace them, then replay with
 * `quetzal_sim --power-trace FILE`.
 *
 * Usage:
 *   quetzal_trace_gen power  [--seed N] [--days N] [--cells N]
 *                            [--peak IRR] [--floor IRR] > power.csv
 *   quetzal_trace_gen events [--seed N] [--events N]
 *                            [--env crowded|...] > events.csv
 *
 * A bad flag value exits 1 naming the flag: --seed, --events,
 * --cells and --env take what quetzal-sim takes, --days a number in
 * [0.001, 366], --peak and --floor a number in [0, 2].
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "cli_flags.hpp"
#include "energy/harvester.hpp"
#include "energy/solar_model.hpp"
#include "trace/event_generator.hpp"

namespace {

using namespace quetzal;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s power  [--seed N] [--days N] [--cells N] "
                 "[--peak IRR] [--floor IRR]\n"
                 "       %s events [--seed N] [--events N] [--env E]\n",
                 argv0, argv0);
    std::exit(2);
}

/** The quetzal-sim flag row for `arg`, if this tool takes it. */
const cli::ConfigFlag *
configFlag(const std::string &arg)
{
    if (arg != "--seed" && arg != "--events" && arg != "--cells" &&
        arg != "--env")
        return nullptr;
    for (const cli::ConfigFlag &row : cli::kConfigFlags) {
        if (arg == row.flag)
            return &row;
    }
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage(argv[0]);
    const std::string mode = argv[1];

    // --seed, --events, --cells and --env accept exactly what
    // quetzal-sim (and a scenario file) accepts for the same field.
    sim::ExperimentConfig cfg;
    cfg.seed = 1;
    cfg.eventCount = 1000;
    cfg.harvesterCells = 6;
    cfg.environment = trace::EnvironmentPreset::Crowded;
    double days = 2.0;
    energy::SolarConfig solarCfg;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (const cli::ConfigFlag *row = configFlag(arg))
            cli::applyConfigFlag(*row, value(), cfg);
        else if (arg == "--days")
            days = cli::checkedNumber(arg, value(), 0.001, 366.0);
        else if (arg == "--peak")
            solarCfg.peakIrradiance =
                cli::checkedNumber(arg, value(), 0.0, 2.0);
        else if (arg == "--floor")
            solarCfg.ambientFloor =
                cli::checkedNumber(arg, value(), 0.0, 2.0);
        else
            usage(argv[0]);
    }

    if (mode == "power") {
        solarCfg.seed = cfg.seed;
        energy::HarvesterConfig harvesterCfg;
        harvesterCfg.cellCount = cfg.harvesterCells;
        const energy::Harvester harvester(harvesterCfg);
        const auto irradiance = energy::SolarModel(solarCfg).generate(
            secondsToTicks(days * 86400.0));
        harvester.powerTrace(irradiance).writeCsv(std::cout);
        return 0;
    }
    if (mode == "events") {
        const auto eventCfg = trace::EventGeneratorConfig::forPreset(
            cfg.environment, cfg.eventCount, cfg.seed);
        trace::EventGenerator(eventCfg).generate().writeCsv(std::cout);
        return 0;
    }
    usage(argv[0]);
}
