#include "core/service_time.hpp"

#include <cmath>

#include "hw/ratio_engine.hpp"
#include "util/wire.hpp"

namespace quetzal {
namespace core {

EnergyAwareEstimator::EnergyAwareEstimator(bool useCircuit)
    : circuitPath(useCircuit)
{
}

double
EnergyAwareEstimator::estimate(const DegradationOption &option,
                               const PowerReading &power) const
{
    if (circuitPath) {
        const Tick ticks =
            hw::RatioEngine::serviceTicks(option.hwProfile, power.code);
        if (ticks == kTickNever) {
            // Saturated shift: effectively no harvestable power.
            return 1e9;
        }
        return ticksToSeconds(ticks);
    }
    const double exact = hw::RatioEngine::exactServiceSeconds(
        option.exeSeconds(), option.execPower, power.watts);
    return std::isinf(exact) ? 1e9 : exact;
}

std::string
EnergyAwareEstimator::name() const
{
    return circuitPath ? "energy-aware(circuit)" : "energy-aware(exact)";
}

AverageServiceTimeEstimator::Key
AverageServiceTimeEstimator::keyFor(const DegradationOption &option)
{
    return {option.exeTicks,
            static_cast<long long>(std::llround(option.execPower * 1e9))};
}

double
AverageServiceTimeEstimator::estimate(const DegradationOption &option,
                                      const PowerReading &power) const
{
    (void)power; // deliberately power-blind (the paper's Avg. S_e2e)
    const auto it = history.find(keyFor(option));
    if (it == history.end() || it->second.count() == 0)
        return option.exeSeconds();
    return it->second.mean();
}

void
AverageServiceTimeEstimator::recordObservation(
        const DegradationOption &option, double observedSeconds)
{
    history[keyFor(option)].add(observedSeconds);
}

std::string
AverageServiceTimeEstimator::name() const
{
    return "avg-se2e";
}

void
AverageServiceTimeEstimator::state(util::wire::Archive &ar)
{
    std::vector<std::pair<Key, util::RunningStats::State>> entries;
    for (const auto &[key, stats] : history)
        entries.emplace_back(key, stats.exportState());
    entries.resize(ar.count(entries.size()));
    for (auto &[key, stats] : entries) {
        std::int64_t tick = key.first;
        std::int64_t power = key.second;
        ar.zigzag(tick);
        ar.zigzag(power);
        key = Key{tick, power};
        stats.walk(ar);
    }
    if (!ar.loaded())
        return;

    std::map<Key, util::RunningStats> restored;
    for (const auto &[key, s] : entries) {
        util::RunningStats stats;
        stats.importState(s);
        restored.emplace(key, stats);
    }
    history = std::move(restored);
}

} // namespace core
} // namespace quetzal
