#include "fleet/coordinator.hpp"

namespace quetzal {
namespace fleet {

namespace {

/**
 * Smallest degradation level whose per-device service rate keeps up
 * with the capture arrival rate: serving one job takes
 * execTicks(base, L), one arrives every capturePeriod.
 */
std::uint8_t
minKeepUpLevel(const CohortConfig &cohort)
{
    for (std::uint8_t level = 0; level <= kMaxDegradeLevel; ++level) {
        if (execTicks(cohort.taskTicks, level) <= cohort.capturePeriod)
            return level;
    }
    return kMaxDegradeLevel;
}

} // namespace

std::uint8_t
assignLevel(const Directive &directive, std::uint64_t chargeNano,
            std::uint32_t occupancy)
{
    if (occupancy >= directive.occupancyHigh ||
        chargeNano <= directive.chargeLowNano)
        return directive.pressureLevel;
    return directive.baseLevel;
}

FleetCoordinator::FleetCoordinator(const FleetConfig &config_)
    : config(config_)
{
    rules.reserve(config.cohorts.size());
    capacityNano.reserve(config.cohorts.size());
    for (const CohortConfig &cohort : config.cohorts) {
        // The registry validates the name: an unknown policy fails
        // here, before any device advances.
        rules.push_back(policy::policyRow(cohort.policy).fleetRule);
        capacityNano.push_back(toNano(
            app::deviceProfile(cohort.device).storage.capacity()));
    }
}

void
FleetCoordinator::consumeSlab(
    const std::vector<CohortCounters> &slabTotals,
    std::vector<CohortState> &cohorts) const
{
    using policy::FleetRule;
    for (std::size_t c = 0; c < rules.size(); ++c) {
        CohortState &state = cohorts[c];
        const CohortConfig &cohort = config.cohorts[c];
        const CohortCounters &slab = slabTotals[c];
        const std::uint64_t devices = cohort.devices;
        const std::uint64_t drops =
            slab.dropsInteresting + slab.dropsUninteresting;
        const std::uint64_t meanOccupancy =
            devices > 0 ? slab.occupancySum / devices : 0;
        const std::uint64_t meanChargeNano =
            devices > 0 ? slab.chargeNanojoules / devices : 0;
        const std::uint32_t capacity = cohort.bufferCapacity;
        const std::uint8_t keepUp = minKeepUpLevel(cohort);

        Directive next;
        if (rules[c] == FleetRule::FullQuality) {
            // The strawman: full quality always, whatever the fleet
            // reports. (Directive defaults already say exactly that.)
        } else if (rules[c] == FleetRule::DeadlineDrain) {
            // Deadline-drain (imprecise computing): each capture
            // period admits one new input, so pick the lowest level
            // at which the mean backlog plus the newcomer clears
            // before the next arrival; degrade hard near a full
            // buffer.
            std::uint8_t base = kMaxDegradeLevel;
            for (std::uint8_t level = 0; level <= kMaxDegradeLevel;
                 ++level) {
                const std::uint64_t drain =
                    (meanOccupancy + 1) *
                    static_cast<std::uint64_t>(
                        execTicks(cohort.taskTicks, level));
                if (drain <= static_cast<std::uint64_t>(
                        cohort.capturePeriod)) {
                    base = level;
                    break;
                }
            }
            next.baseLevel = base;
            next.pressureLevel = kMaxDegradeLevel;
            next.occupancyHigh = capacity > 1 ? capacity - 1 : 1;
        } else if (rules[c] == FleetRule::EnergyHorizon) {
            // Energy lookahead: devices run full quality while their
            // own charge horizon is healthy and shed work when it
            // drops below 30 % of usable capacity; the base level
            // follows the fleet-wide mean.
            next.pressureLevel = kMaxDegradeLevel;
            next.chargeLowNano = capacityNano[c] * 3 / 10;
            if (meanChargeNano <= next.chargeLowNano)
                next.baseLevel = std::uint8_t(1) > keepUp
                    ? std::uint8_t(1) : keepUp;
        } else {
            // The paper's overflow-prevention posture (sjf-ibo):
            // escalate to the keep-up level while the fleet observed
            // drops; relax one level per quiet slab. Per-device pressure kicks in at 3/4
            // occupancy or a nearly flat capacitor.
            std::uint8_t base = state.lastBase;
            if (drops > 0)
                base = base > keepUp ? base : keepUp;
            else if (base > 0)
                --base;
            state.lastBase = base;
            next.baseLevel = base;
            next.pressureLevel =
                base < kMaxDegradeLevel ? base + 1 : kMaxDegradeLevel;
            next.occupancyHigh =
                capacity >= 4 ? capacity - capacity / 4 : capacity;
            next.chargeLowNano = capacityNano[c] * 3 / 20;
        }
        state.directive = next;
    }
}

} // namespace fleet
} // namespace quetzal
