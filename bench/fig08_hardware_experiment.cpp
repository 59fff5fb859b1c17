/**
 * @file
 * Figure 8: the end-to-end "hardware" experiment — Quetzal vs NoAdapt
 * over 100 events in two sensing environments.
 *
 * The paper runs this on a physical Apollo 4 + camera + LoRa rig; we
 * run the same pipeline in the simulator (the paper's own simulator
 * mirrors the rig, section 6.3). Paper results: QZ discards 6.4x /
 * 5x fewer interesting inputs and reports 74 % / 27 % more.
 */

#include "bench_util.hpp"

int
main()
{
    using namespace quetzal;
    using sim::ControllerKind;

    bench::banner("Figure 8: end-to-end experiment (100 events, "
                  "Apollo 4)");

    const auto environments = {trace::EnvironmentPreset::MoreCrowded,
                               trace::EnvironmentPreset::Crowded};
    std::vector<sim::ExperimentConfig> configs;
    for (const auto env : environments) {
        configs.push_back(
            bench::makeConfig(ControllerKind::NoAdapt, env, 100));
        configs.push_back(
            bench::makeConfig(ControllerKind::Quetzal, env, 100));
    }
    const std::vector<sim::Metrics> results =
        bench::runConfigs(std::move(configs));

    std::size_t next = 0;
    for (const auto env : environments) {
        std::printf("\n-- environment: %s --\n",
                    trace::environmentName(env).c_str());
        sim::printDiscardTableHeader();
        const sim::Metrics &na = results[next++];
        const sim::Metrics &qz = results[next++];
        sim::printDiscardTableRow("NA", na);
        sim::printDiscardTableRow("QZ", qz);

        const double moreReported =
            100.0 *
            (static_cast<double>(qz.txInterestingTotal()) /
                 static_cast<double>(
                     std::max<std::uint64_t>(na.txInterestingTotal(),
                                             1)) -
             1.0);
        std::printf("QZ vs NA: %.1fx fewer discarded (paper: 6.4x / "
                    "5x), %+.0f%% reported (paper: +74%% / +27%%)\n",
                    sim::discardRatio(na, qz), moreReported);
    }
    return 0;
}
