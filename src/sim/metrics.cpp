#include "sim/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <ostream>

#include "util/wire.hpp"

namespace quetzal {
namespace sim {

std::uint64_t
Metrics::interestingMissedAtCapture() const
{
    return interestingInputsNominal > interestingCaptured ?
        interestingInputsNominal - interestingCaptured : 0;
}

std::uint64_t
Metrics::interestingDiscardedTotal() const
{
    return iboDropsInteresting + fnDiscards + unprocessedInteresting;
}

double
Metrics::interestingDiscardedPct() const
{
    if (interestingInputsNominal == 0)
        return 0.0;
    return 100.0 * static_cast<double>(interestingDiscardedTotal()) /
        static_cast<double>(interestingInputsNominal);
}

double
Metrics::iboDiscardedPct() const
{
    if (interestingInputsNominal == 0)
        return 0.0;
    return 100.0 *
        static_cast<double>(iboDropsInteresting + unprocessedInteresting) /
        static_cast<double>(interestingInputsNominal);
}

double
Metrics::fnDiscardedPct() const
{
    if (interestingInputsNominal == 0)
        return 0.0;
    return 100.0 * static_cast<double>(fnDiscards) /
        static_cast<double>(interestingInputsNominal);
}

std::uint64_t
Metrics::txInterestingTotal() const
{
    return txInterestingHq + txInterestingLq;
}

double
Metrics::highQualityShare() const
{
    const std::uint64_t total = txInterestingTotal();
    if (total == 0)
        return 0.0;
    return static_cast<double>(txInterestingHq) /
        static_cast<double>(total);
}

void
Metrics::printReport(std::ostream &out, const std::string &label) const
{
    out << "== " << label << " ==\n"
        << "  events: " << eventsTotal << " (" << eventsInteresting
        << " interesting)\n"
        << "  interesting inputs (nominal 1 FPS): "
        << interestingInputsNominal << "\n"
        << "  captures: " << captures << " (interesting "
        << interestingCaptured << ", missed-at-capture "
        << interestingMissedAtCapture() << ")\n"
        << "  stored inputs: " << storedInputs << "\n"
        << "  IBO drops: interesting " << iboDropsInteresting
        << ", uninteresting " << iboDropsUninteresting
        << ", unprocessed-at-end " << unprocessedInteresting << "\n"
        << "  false negatives: " << fnDiscards
        << ", false positives: " << fpPositives << "\n"
        << "  interesting discarded: " << interestingDiscardedTotal()
        << " (" << interestingDiscardedPct() << "% of nominal)\n"
        << "  tx interesting: HQ " << txInterestingHq << ", LQ "
        << txInterestingLq << " | tx uninteresting: HQ "
        << txUninterestingHq << ", LQ " << txUninterestingLq << "\n"
        << "  jobs: " << jobsCompleted << " (degraded " << degradedJobs
        << ", IBO predictions " << iboPredictions << ")\n"
        << "  power failures: " << powerFailures << " (saves "
        << checkpointSaves << ", rolled-back "
        << ticksToSeconds(rolledBackTicks) << " s), recharge "
        << ticksToSeconds(rechargeTicks) << " s, active "
        << ticksToSeconds(activeTicks) << " s of "
        << ticksToSeconds(simulatedTicks) << " s\n"
        << "  scheduler overhead: " << schedulerOverheadSeconds
        << " s, " << schedulerOverheadEnergy << " J\n";
    // Printed only when the measurement-overhead knobs are on, so
    // reports from default configurations stay byte-identical.
    if (telemetryOverheadSeconds != 0.0 || telemetryOverheadEnergy != 0.0) {
        out << "  telemetry overhead: " << telemetryOverheadSeconds
            << " s, " << telemetryOverheadEnergy << " J\n";
    }
}

void
printDiscardTableHeader()
{
    std::printf("%-12s %10s %8s %8s %8s %8s %8s %6s\n", "system",
                "disc-total%", "ibo%", "fn%", "txI-HQ", "txI-LQ",
                "txU", "HQ%");
}

void
printDiscardTableRow(const std::string &label, const Metrics &m)
{
    std::printf("%-12s %10.2f %8.2f %8.2f %8llu %8llu %8llu %6.1f\n",
                label.c_str(), m.interestingDiscardedPct(),
                m.iboDiscardedPct(), m.fnDiscardedPct(),
                static_cast<unsigned long long>(m.txInterestingHq),
                static_cast<unsigned long long>(m.txInterestingLq),
                static_cast<unsigned long long>(m.txUninterestingHq +
                                                m.txUninterestingLq),
                100.0 * m.highQualityShare());
}

double
discardRatio(const Metrics &baseline, const Metrics &quetzal)
{
    const double b =
        static_cast<double>(baseline.interestingDiscardedTotal());
    const double q = static_cast<double>(
        std::max<std::uint64_t>(quetzal.interestingDiscardedTotal(), 1));
    return b / q;
}

double
iboRatio(const Metrics &baseline, const Metrics &quetzal)
{
    const double b = static_cast<double>(
        baseline.iboDropsInteresting + baseline.unprocessedInteresting);
    const double q = static_cast<double>(std::max<std::uint64_t>(
        quetzal.iboDropsInteresting + quetzal.unprocessedInteresting,
        1));
    return b / q;
}

void
Metrics::walk(util::wire::Archive &ar)
{
    for (std::uint64_t *counter :
         {&eventsTotal, &eventsInteresting, &interestingInputsNominal,
          &captures, &interestingCaptured, &uninterestingCaptured,
          &storedInputs, &iboDropsInteresting, &iboDropsUninteresting,
          &fnDiscards, &fpPositives, &unprocessedInteresting,
          &txInterestingHq, &txInterestingLq, &txUninterestingHq,
          &txUninterestingLq, &jobsCompleted, &degradedJobs,
          &iboPredictions, &powerFailures, &checkpointSaves})
        ar.varint(*counter);
    for (Tick *ticks :
         {&rechargeTicks, &activeTicks, &rolledBackTicks, &simulatedTicks})
        ar.varint(*ticks);
    ar.varint(deadlineMisses);
    for (double *value :
         {&energyWastedJoules, &schedulerOverheadSeconds,
          &schedulerOverheadEnergy, &telemetryOverheadSeconds,
          &telemetryOverheadEnergy})
        ar.real(*value);
    for (util::RunningStats *stats :
         {&jobServiceSeconds, &predictionErrorSeconds}) {
        util::RunningStats::State state = stats->exportState();
        state.walk(ar);
        if (ar.loading())
            stats->importState(state);
    }
}

} // namespace sim
} // namespace quetzal
