#include "queueing/rate_tracker.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/wire.hpp"

namespace quetzal {
namespace queueing {

ArrivalRateTracker::ArrivalRateTracker(std::uint32_t windowPeriods,
                                       double captureHz_)
    : counts(windowPeriods, 0), captureHz(captureHz_)
{
    if (windowPeriods == 0)
        util::fatal("arrival window must be positive");
    if (captureHz <= 0.0)
        util::fatal("capture rate must be positive");
}

void
ArrivalRateTracker::beginPeriod()
{
    const auto size = static_cast<std::uint32_t>(counts.size());
    if (filledPeriods == size) {
        // The burst span slides by one period: its oldest period
        // leaves it (when the span is the whole window, that is the
        // period about to be evicted) and the fresh, empty one joins.
        burstSum -= counts[(cursor + size + 1 -
                            std::min(size, kBurstPeriods)) % size];
        cursor = (cursor + 1) % size;
        runningSum -= counts[cursor];
        counts[cursor] = 0;
    } else {
        // Window not yet warm: the cursor stays on the next fresh
        // slot (slots are zero-initialized). A restored cursor need
        // not sit just behind it, so the span is summed afresh; this
        // happens for the first window's periods only.
        cursor = filledPeriods;
        ++filledPeriods;
        burstSum = sumBurst();
    }
}

void
ArrivalRateTracker::recordInsertion()
{
    if (filledPeriods == 0)
        beginPeriod();
    if (counts[cursor] < 255) {
        ++counts[cursor];
        ++runningSum;
        ++burstSum;
    }
}

void
ArrivalRateTracker::recordCapture(bool stored)
{
    beginPeriod();
    if (stored)
        recordInsertion();
}

double
ArrivalRateTracker::insertionsPerPeriod() const
{
    if (filledPeriods == 0)
        return 1.0; // conservative before any observation
    return static_cast<double>(runningSum) /
        static_cast<double>(filledPeriods);
}

std::uint32_t
ArrivalRateTracker::sumBurst() const
{
    const auto size = static_cast<std::uint32_t>(counts.size());
    const std::uint32_t span = std::min(filledPeriods, kBurstPeriods);
    std::uint32_t sum = 0;
    for (std::uint32_t back = 0; back < span; ++back)
        sum += counts[(cursor + size - back) % size];
    return sum;
}

double
ArrivalRateTracker::burstInsertionsPerPeriod() const
{
    if (filledPeriods == 0)
        return 1.0; // conservative before any observation
    return static_cast<double>(burstSum) /
        static_cast<double>(std::min(filledPeriods, kBurstPeriods));
}

double
ArrivalRateTracker::arrivalsPerSecond() const
{
    return std::max(insertionsPerPeriod(), burstInsertionsPerPeriod()) *
        captureHz;
}

ExecutionProbabilityTracker::ExecutionProbabilityTracker(
        std::uint32_t windowBits)
    : window(windowBits)
{
}

void
ExecutionProbabilityTracker::recordExecution(bool executed)
{
    window.append(executed);
}

void
ArrivalRateTracker::State::walk(util::wire::Archive &ar)
{
    const std::size_t periods = counts.size();
    ar.check(ar.count(periods) == periods);
    for (std::uint8_t &count : counts)
        ar.varint(count);
    ar.varint(cursor);
    ar.varint(filledPeriods);
    ar.varint(runningSum);
    ar.check(cursor < periods && filledPeriods <= periods);
}

} // namespace queueing
} // namespace quetzal
