/**
 * @file
 * Figure 11: Quetzal vs fixed buffer-occupancy thresholds.
 *
 * (a/b) thresholds 25/50/75 % across the three environments (paper:
 * QZ discards geomean 1.15x/1.67x/2.2x fewer and sends 48/62/64 %
 * more high-quality inputs); (c) a full threshold sweep showing QZ
 * dominates at every static threshold.
 */

#include <vector>

#include "bench_util.hpp"
#include "util/stats.hpp"

int
main()
{
    using namespace quetzal;
    using sim::ControllerKind;

    bench::banner("Figure 11a/b: QZ vs fixed thresholds 25/50/75% "
                  "(1000 events, Apollo 4)");

    const auto environments = {trace::EnvironmentPreset::MoreCrowded,
                               trace::EnvironmentPreset::Crowded,
                               trace::EnvironmentPreset::LessCrowded};

    auto thresholdConfig = [](trace::EnvironmentPreset env,
                              double threshold) {
        sim::ExperimentConfig cfg = bench::makeConfig(
            ControllerKind::BufferThreshold, env);
        cfg.bufferThreshold = threshold;
        return cfg;
    };

    // Parts a/b (QZ + three thresholds per environment) and the
    // part-c sweep fan out as one batch on the parallel engine.
    std::vector<sim::ExperimentConfig> configs;
    for (const auto env : environments) {
        configs.push_back(bench::makeConfig(ControllerKind::Quetzal,
                                            env));
        for (double threshold : {0.25, 0.5, 0.75})
            configs.push_back(thresholdConfig(env, threshold));
    }
    const std::size_t sweepBase = configs.size();
    for (int pct = 10; pct <= 90; pct += 10)
        configs.push_back(
            thresholdConfig(trace::EnvironmentPreset::Crowded,
                            pct / 100.0));
    const std::vector<sim::Metrics> results =
        bench::runConfigs(std::move(configs));

    std::size_t next = 0;
    sim::Metrics crowdedQz;
    for (const auto env : environments) {
        std::printf("\n-- environment: %s --\n",
                    trace::environmentName(env).c_str());
        sim::printDiscardTableHeader();
        const sim::Metrics &qz = results[next++];
        if (env == trace::EnvironmentPreset::Crowded)
            crowdedQz = qz;

        std::vector<double> ratios;
        std::vector<double> hqGains;
        for (double threshold : {0.25, 0.5, 0.75}) {
            const sim::Metrics &thr = results[next++];
            sim::printDiscardTableRow(
                sim::experimentLabel(thresholdConfig(env, threshold)),
                thr);
            ratios.push_back(sim::discardRatio(thr, qz));
            hqGains.push_back(
                static_cast<double>(qz.txInterestingHq) /
                static_cast<double>(
                    std::max<std::uint64_t>(thr.txInterestingHq, 1)));
        }
        sim::printDiscardTableRow("QZ", qz);
        std::printf("QZ vs thresholds: geomean %.2fx fewer discards "
                    "(paper: 1.15-2.2x), geomean %.2fx HQ inputs "
                    "(paper: +48-64%%)\n",
                    util::geometricMean(ratios),
                    util::geometricMean(hqGains));
    }

    bench::banner("Figure 11c: full threshold sweep (Crowded)");
    std::printf("%-12s %12s %10s\n", "threshold", "disc-total%", "HQ%");
    const sim::Metrics &qz = crowdedQz;
    for (int pct = 10; pct <= 90; pct += 10) {
        const sim::Metrics &thr =
            results[sweepBase +
                    static_cast<std::size_t>(pct / 10 - 1)];
        std::printf("%-12d %12.2f %9.1f%%\n", pct,
                    thr.interestingDiscardedPct(),
                    100.0 * thr.highQualityShare());
    }
    std::printf("%-12s %12.2f %9.1f%%\n", "QZ (dynamic)",
                qz.interestingDiscardedPct(),
                100.0 * qz.highQualityShare());
    std::printf("\npaper shape: no static threshold matches dynamic "
                "IBO-driven adaptation (Fig. 11c).\n");
    return 0;
}
