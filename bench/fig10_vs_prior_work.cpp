/**
 * @file
 * Figure 10: Quetzal vs prior-work baselines — CatNap [62] and the
 * Zygarde/Protean power-threshold scheme [44, 7] in its as-proposed
 * (ZGO, datasheet max) and idealized-oracle (ZGI, observed max)
 * variants.
 *
 * Paper results: QZ discards 2.2x/3.4x/4.3x fewer total (4.1x/7.8x/
 * 17.2x IBO-only) than CatNap, and 1.9x/2.6x/3.1x fewer than even
 * the unrealizable PZI, with 1.7x/1.9x/2.1x more high-quality
 * interesting inputs.
 */

#include "bench_util.hpp"

int
main()
{
    using namespace quetzal;
    using sim::ControllerKind;

    bench::banner("Figure 10: QZ vs prior work (1000 events, "
                  "Apollo 4)");

    const auto environments = {trace::EnvironmentPreset::MoreCrowded,
                               trace::EnvironmentPreset::Crowded,
                               trace::EnvironmentPreset::LessCrowded};
    const auto kinds = {ControllerKind::CatNap, ControllerKind::Zgo,
                        ControllerKind::Zgi, ControllerKind::Quetzal};

    std::vector<sim::ExperimentConfig> configs;
    for (const auto env : environments)
        for (const auto kind : kinds)
            configs.push_back(bench::makeConfig(kind, env));
    const std::vector<sim::Metrics> results =
        bench::runConfigs(std::move(configs));

    std::size_t next = 0;
    for (const auto env : environments) {
        std::printf("\n-- environment: %s --\n",
                    trace::environmentName(env).c_str());
        sim::printDiscardTableHeader();
        const sim::Metrics &cn = results[next++];
        const sim::Metrics &zgo = results[next++];
        const sim::Metrics &zgi = results[next++];
        const sim::Metrics &qz = results[next++];
        sim::printDiscardTableRow("CN", cn);
        sim::printDiscardTableRow("PZO", zgo);
        sim::printDiscardTableRow("PZI", zgi);
        sim::printDiscardTableRow("QZ", qz);

        std::printf("QZ vs CN:  %.1fx total, %.1fx IBO-only (paper: "
                    "2.2-4.3x / 4.1-17.2x)\n",
                    sim::discardRatio(cn, qz),
                    sim::iboRatio(cn, qz));
        std::printf("QZ vs PZI: %.1fx total (paper: 1.9-3.1x), HQ "
                    "inputs %.1fx (paper: 1.7-2.1x)\n",
                    sim::discardRatio(zgi, qz),
                    static_cast<double>(qz.txInterestingHq) /
                        static_cast<double>(std::max<std::uint64_t>(
                            zgi.txInterestingHq, 1)));
    }
    return 0;
}
