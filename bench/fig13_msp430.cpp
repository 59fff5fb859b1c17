/**
 * @file
 * Figure 13: versatility — the full baseline comparison on the
 * MSP430FR5994 (int16/int8 LeNet options, 10 s max interesting
 * duration). Paper results: QZ discards 2.8x fewer interesting
 * inputs than NA and sends ~40 % more high-quality inputs than the
 * best fixed threshold (75 %).
 */

#include "bench_util.hpp"

int
main()
{
    using namespace quetzal;
    using sim::ControllerKind;

    bench::banner("Figure 13: MSP430FR5994 (1000 events, "
                  "Msp430Short environment)");
    sim::printDiscardTableHeader();

    auto mspConfig = [](ControllerKind kind, double threshold = 0.5) {
        sim::ExperimentConfig cfg;
        cfg.device = app::DeviceKind::Msp430;
        cfg.environment = trace::EnvironmentPreset::Msp430Short;
        cfg.eventCount = 1000;
        cfg.controller = kind;
        cfg.bufferThreshold = threshold;
        return cfg;
    };

    const std::vector<sim::Metrics> results = bench::runConfigs({
        mspConfig(ControllerKind::Ideal),
        mspConfig(ControllerKind::NoAdapt),
        mspConfig(ControllerKind::AlwaysDegrade),
        mspConfig(ControllerKind::CatNap),
        mspConfig(ControllerKind::BufferThreshold, 0.75),
        mspConfig(ControllerKind::Zgo),
        mspConfig(ControllerKind::Zgi),
        mspConfig(ControllerKind::Quetzal),
    });
    const sim::Metrics &ideal = results[0];
    const sim::Metrics &na = results[1];
    const sim::Metrics &ad = results[2];
    const sim::Metrics &cn = results[3];
    const sim::Metrics &t75 = results[4];
    const sim::Metrics &zgo = results[5];
    const sim::Metrics &zgi = results[6];
    const sim::Metrics &qz = results[7];

    sim::printDiscardTableRow("Ideal", ideal);
    sim::printDiscardTableRow("NA", na);
    sim::printDiscardTableRow("AD", ad);
    sim::printDiscardTableRow("CN", cn);
    sim::printDiscardTableRow("THR-75%", t75);
    sim::printDiscardTableRow("PZO", zgo);
    sim::printDiscardTableRow("PZI", zgi);
    sim::printDiscardTableRow("QZ", qz);

    std::printf("\nQZ vs NA: %.1fx fewer discarded (paper: 2.8x)\n",
                sim::discardRatio(na, qz));
    std::printf("QZ HQ interesting inputs vs THR-75%%: %+.0f%% "
                "(paper: +40%%)\n",
                100.0 * (static_cast<double>(qz.txInterestingHq) /
                             static_cast<double>(std::max<std::uint64_t>(
                                 t75.txInterestingHq, 1)) -
                         1.0));
    std::printf("paper shape: Quetzal is microcontroller-agnostic — "
                "the same wins hold on a 16-bit MCU.\n");
    return 0;
}
