/**
 * @file
 * Figure 3: naive solutions are ineffective at tackling IBOs.
 *
 * Reproduces the motivating comparison on the Crowded environment:
 * Ideal (infinite memory), NoAdapt (NA), AlwaysDegrade (AD),
 * CatNap (CN, degrade only when full), Protean/Zygarde (PZO,
 * datasheet power threshold) and Quetzal (QZ). Part (a) is the
 * discarded-interesting-inputs breakdown (IBO vs ML false
 * negatives), part (b) the radio-packet quality distribution.
 */

#include "bench_util.hpp"

int
main()
{
    using namespace quetzal;
    using sim::ControllerKind;
    const auto env = trace::EnvironmentPreset::Crowded;

    bench::banner("Figure 3: naive solutions (Crowded, Apollo 4, "
                  "buffer=10)");
    sim::printDiscardTableHeader();

    const std::pair<ControllerKind, const char *> systems[] = {
        {ControllerKind::Ideal, "Ideal"},
        {ControllerKind::NoAdapt, "NA"},
        {ControllerKind::AlwaysDegrade, "AD"},
        {ControllerKind::CatNap, "CN"},
        {ControllerKind::Zgo, "PZO"},
        {ControllerKind::Quetzal, "QZ"},
    };

    std::vector<sim::ExperimentConfig> configs;
    for (const auto &[kind, label] : systems)
        configs.push_back(bench::makeConfig(kind, env));
    const std::vector<sim::Metrics> results =
        bench::runConfigs(std::move(configs));

    sim::Metrics na;
    sim::Metrics qz;
    std::size_t next = 0;
    for (const auto &[kind, label] : systems) {
        const sim::Metrics &m = results[next++];
        sim::printDiscardTableRow(label, m);
        if (kind == ControllerKind::NoAdapt)
            na = m;
        if (kind == ControllerKind::Quetzal)
            qz = m;
    }

    std::printf("\nQZ vs NA: %.1fx fewer interesting inputs discarded "
                "(paper section 2.3: up to 4.2x)\n",
                sim::discardRatio(na, qz));
    std::printf("paper shape: NA/CN lose to IBOs; AD/PZO lose to "
                "misclassifications and report\nonly low quality; QZ "
                "minimizes both (Fig. 3a/3b).\n");
    return 0;
}
