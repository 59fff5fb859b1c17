#include "energy/power_trace.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "util/csv.hpp"
#include "util/logging.hpp"

namespace quetzal {
namespace energy {

PowerTrace::PowerTrace(std::vector<Segment> segments_)
    : segments(std::move(segments_))
{
    for (std::size_t i = 1; i < segments.size(); ++i) {
        if (segments[i].start <= segments[i - 1].start)
            util::panic("PowerTrace segments must be strictly sorted");
    }
}

PowerTrace
PowerTrace::fromSamples(const std::vector<double> &samples, Tick interval)
{
    if (interval <= 0)
        util::panic("PowerTrace sample interval must be positive");
    std::vector<Segment> segments;
    segments.reserve(samples.size());
    Tick start = 0;
    for (double sample : samples) {
        // Merge runs of equal values to keep segment queries cheap.
        if (segments.empty() || segments.back().value != sample)
            segments.push_back({start, sample});
        start += interval;
    }
    return PowerTrace(std::move(segments));
}

PowerTrace
PowerTrace::constant(double value)
{
    return PowerTrace({{0, value}});
}

void
PowerTrace::append(Tick start, double value)
{
    if (!segments.empty() && start <= segments.back().start)
        util::panic(util::msg("PowerTrace::append out of order: ", start));
    segments.push_back({start, value});
}

double
PowerTrace::valueAt(Tick tick) const
{
    if (segments.empty())
        return 0.0;
    // First segment starting after tick; the one before it holds.
    auto it = std::upper_bound(
        segments.begin(), segments.end(), tick,
        [](Tick t, const Segment &seg) { return t < seg.start; });
    if (it == segments.begin())
        return segments.front().value;
    return std::prev(it)->value;
}

Tick
PowerTrace::nextChangeAfter(Tick tick) const
{
    if (segments.empty())
        return kTickNever;
    // One search locates both the holding segment (the element before
    // the upper bound, which gives the current value) and the first
    // candidate change point.
    auto it = std::upper_bound(
        segments.begin(), segments.end(), tick,
        [](Tick t, const Segment &seg) { return t < seg.start; });
    const double current = it == segments.begin()
        ? segments.front().value : std::prev(it)->value;
    // Skip forward over segments that do not actually change the value
    // (possible when a trace was built via append with equal values).
    while (it != segments.end() && it->value == current)
        ++it;
    if (it == segments.end())
        return kTickNever;
    return it->start;
}

void
PowerTrace::Cursor::reseekBackward(Tick tick)
{
    // Backward query: re-seek from scratch.
    const auto &segments = trace->segments;
    const auto it = std::upper_bound(
        segments.begin(), segments.end(), tick,
        [](Tick t, const Segment &seg) { return t < seg.start; });
    index = it == segments.begin()
        ? 0
        : static_cast<std::size_t>(
              std::prev(it) - segments.begin());
}

double
PowerTrace::maxValue() const
{
    double best = 0.0;
    for (const auto &seg : segments)
        best = std::max(best, seg.value);
    return best;
}

double
PowerTrace::meanValue(Tick horizon) const
{
    if (horizon <= 0 || segments.empty())
        return 0.0;
    // The first segment's value extends backward to tick 0; the last
    // segment's value extends forward forever.
    double weighted = 0.0;
    Tick covered = 0;
    double value = segments.front().value;
    for (const auto &seg : segments) {
        const Tick end = std::min(seg.start, horizon);
        if (end > covered) {
            weighted += value * static_cast<double>(end - covered);
            covered = end;
        }
        value = seg.value;
        if (covered >= horizon)
            break;
    }
    if (horizon > covered)
        weighted += value * static_cast<double>(horizon - covered);
    return weighted / static_cast<double>(horizon);
}

PowerTrace
PowerTrace::scaled(double factor) const
{
    std::vector<Segment> copy = segments;
    for (auto &seg : copy)
        seg.value *= factor;
    return PowerTrace(std::move(copy));
}

PowerTrace
PowerTrace::overlaid(const std::vector<OverlayWindow> &windows) const
{
    Tick previousEnd = kTickNever;
    bool anyActive = false;
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const OverlayWindow &w = windows[i];
        if (w.end < w.start)
            util::panic("PowerTrace overlay window ends before it starts");
        if (i > 0 && w.start < previousEnd)
            util::panic("PowerTrace overlay windows must be sorted and "
                        "non-overlapping");
        previousEnd = w.end;
        if (w.end > w.start && w.factor != 1.0)
            anyActive = true;
    }
    if (!anyActive || segments.empty())
        return *this;

    // Merge the segment starts with the window boundaries: at every
    // boundary the new value is valueAt(t) times the factor of the
    // window holding at t (1 outside all windows).
    std::vector<Tick> boundaries;
    boundaries.reserve(segments.size() + 2 * windows.size());
    for (const Segment &seg : segments)
        boundaries.push_back(seg.start);
    for (const OverlayWindow &w : windows) {
        if (w.end == w.start || w.factor == 1.0)
            continue;
        boundaries.push_back(w.start);
        boundaries.push_back(w.end);
    }
    std::sort(boundaries.begin(), boundaries.end());
    boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                     boundaries.end());

    auto factorAt = [&](Tick tick) {
        for (const OverlayWindow &w : windows) {
            if (tick < w.start)
                break;
            if (tick < w.end)
                return w.factor;
        }
        return 1.0;
    };

    std::vector<Segment> merged;
    merged.reserve(boundaries.size());
    for (Tick tick : boundaries) {
        const double value = valueAt(tick) * factorAt(tick);
        if (merged.empty() || merged.back().value != value)
            merged.push_back({tick, value});
    }
    return PowerTrace(std::move(merged));
}

void
PowerTrace::writeCsv(std::ostream &out) const
{
    util::CsvWriter writer(out);
    writer.comment("time_seconds,value");
    for (const auto &seg : segments)
        writer.row(std::vector<double>{ticksToSeconds(seg.start),
                                       seg.value});
}

PowerTrace
PowerTrace::readCsv(std::istream &in)
{
    std::vector<Segment> segments;
    for (const auto &row : util::readCsv(in)) {
        if (row.size() != 2)
            util::fatal("power trace CSV rows must be time,value");
        segments.push_back({secondsToTicks(util::parseDouble(row[0])),
                            util::parseDouble(row[1])});
    }
    return PowerTrace(std::move(segments));
}

} // namespace energy
} // namespace quetzal
