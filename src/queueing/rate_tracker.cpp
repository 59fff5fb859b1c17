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
    if (filledPeriods == counts.size()) {
        cursor = (cursor + 1) % counts.size();
        runningSum -= counts[cursor];
        counts[cursor] = 0;
    } else {
        // Window not yet warm: the cursor stays on the next fresh
        // slot (slots are zero-initialized).
        cursor = filledPeriods;
        ++filledPeriods;
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

double
ArrivalRateTracker::burstInsertionsPerPeriod() const
{
    if (filledPeriods == 0)
        return 1.0; // conservative before any observation
    const std::uint32_t span = std::min(filledPeriods, kBurstPeriods);
    std::uint32_t sum = 0;
    for (std::uint32_t back = 0; back < span; ++back) {
        const std::uint32_t index =
            (cursor + static_cast<std::uint32_t>(counts.size()) - back) %
            static_cast<std::uint32_t>(counts.size());
        sum += counts[index];
    }
    return static_cast<double>(sum) / static_cast<double>(span);
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

double
ExecutionProbabilityTracker::probability() const
{
    return window.fraction(1.0);
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
