#include "fault/fault_injector.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"
#include "util/wire.hpp"

namespace quetzal {
namespace fault {

namespace {

/** Pack the ADC masks into one reportable magnitude. */
double
adcMagnitude(const AdcFault &adc)
{
    return static_cast<double>(
        (static_cast<std::uint32_t>(adc.stuckHighMask) << 24) |
        (static_cast<std::uint32_t>(adc.stuckLowMask) << 16) |
        (static_cast<std::uint32_t>(adc.flipMask) << 8) |
        static_cast<std::uint32_t>(adc.saturateMax));
}

} // namespace

FaultInjector::FaultInjector(const FaultSpec &spec, std::uint64_t runSeed)
    : spec_(spec)
{
    // Mix the fault seed with the run seed: the SplitMix64 finalizer
    // of faultSeed plus runSeed + 1 golden-ratio steps (mix64 takes
    // the last step itself).
    util::Rng base(util::mix64(spec.seed + 0x9e3779b97f4a7c15ull * runSeed));
    // One decorrelated stream per seam: adding draws to one seam
    // (say, denser power dropouts) must not re-time the others.
    windowRng = base.fork();
    measurementRng = base.fork();
    executionRng = base.fork();
    jitterRng = base.fork();
}

void
FaultInjector::drawWindows(util::Rng &rng, Tick horizon, double perHour,
                           double widthSeconds, FaultClass cls,
                           double magnitude)
{
    if (perHour <= 0.0 || widthSeconds <= 0.0)
        return;
    const double meanGapSeconds = 3600.0 / perHour;
    const Tick width = std::max<Tick>(1, secondsToTicks(widthSeconds));
    Tick t = 0;
    while (true) {
        t += std::max<Tick>(
            1, secondsToTicks(rng.exponential(meanGapSeconds)));
        if (t >= horizon)
            return;
        const Tick end = std::min(t + width, horizon);
        windows_.push_back({t, end, cls, magnitude});
        t = end;
    }
}

void
FaultInjector::prepare(Tick horizon)
{
    if (prepared)
        util::panic("FaultInjector::prepare called twice");
    prepared = true;
    if (horizon <= 0)
        return;

    const PowerTraceFault &pt = spec_.powerTrace;
    drawWindows(windowRng, horizon, pt.dropoutsPerHour,
                pt.dropoutSeconds, FaultClass::PowerDropout, 0.0);
    drawWindows(windowRng, horizon, pt.spikesPerHour, pt.spikeSeconds,
                FaultClass::PowerSpike, pt.spikeFactor);
    const ArrivalFault &ar = spec_.arrivals;
    drawWindows(windowRng, horizon, ar.burstsPerHour, ar.burstSeconds,
                FaultClass::ArrivalBurst, ar.burstSeconds);

    std::sort(windows_.begin(), windows_.end(),
              [](const Window &a, const Window &b) {
                  if (a.start != b.start)
                      return a.start < b.start;
                  if (a.cls != b.cls)
                      return static_cast<int>(a.cls) <
                          static_cast<int>(b.cls);
                  return a.end < b.end;
              });

    // Dropout and spike windows both splice the power trace, so a
    // later power window overlapping an earlier one is discarded (it
    // could not take effect, and announcing it would lie).
    std::vector<Window> kept;
    kept.reserve(windows_.size());
    Tick powerCovered = -1;
    for (const Window &w : windows_) {
        const bool isPower = w.cls == FaultClass::PowerDropout ||
            w.cls == FaultClass::PowerSpike;
        if (isPower) {
            if (w.start < powerCovered)
                continue;
            powerCovered = w.end;
        }
        kept.push_back(w);
    }
    windows_ = std::move(kept);
}

energy::PowerTrace
FaultInjector::perturbPowerTrace(const energy::PowerTrace &clean) const
{
    if (!prepared)
        util::panic("FaultInjector::perturbPowerTrace before prepare");
    std::vector<energy::PowerTrace::OverlayWindow> overlay;
    for (const Window &w : windows_) {
        if (w.cls == FaultClass::PowerDropout)
            overlay.push_back({w.start, w.end, 0.0});
        else if (w.cls == FaultClass::PowerSpike)
            overlay.push_back({w.start, w.end, w.magnitude});
    }
    return clean.overlaid(overlay);
}

void
FaultInjector::emitInjected(FaultClass cls, Tick windowEnd,
                            double magnitude)
{
    ++injected_;
    if (observer_ == nullptr ||
        !observer_->wants(obs::EventKind::FaultInjected))
        return;
    obs::Event event;
    event.kind = obs::EventKind::FaultInjected;
    event.id = injected_;
    event.value = static_cast<std::int64_t>(cls);
    event.extra = windowEnd;
    event.a = magnitude;
    observer_->record(event);
}

void
FaultInjector::onRunStart()
{
    const MeasurementFault &m = spec_.measurement;
    if (m.biasWatts != 0.0)
        emitInjected(FaultClass::MeasurementBias, 0, m.biasWatts);
    if (m.noiseSigma > 0.0)
        emitInjected(FaultClass::MeasurementNoise, 0, m.noiseSigma);
    if (spec_.adc.active())
        emitInjected(FaultClass::AdcCode, 0, adcMagnitude(spec_.adc));
    if (spec_.arrivals.captureJitterMs > 0)
        emitInjected(FaultClass::CaptureJitter, 0,
                     static_cast<double>(spec_.arrivals.captureJitterMs));
}

void
FaultInjector::onTick(Tick now)
{
    while (pendingWindow < windows_.size() &&
           windows_[pendingWindow].start <= now) {
        const Window &w = windows_[pendingWindow];
        emitInjected(w.cls, w.end, w.magnitude);
        ++pendingWindow;
    }
}

Watts
FaultInjector::perturbMeasuredPower(Watts truePower)
{
    const MeasurementFault &m = spec_.measurement;
    if (!m.active())
        return truePower;
    double measured = truePower + m.biasWatts;
    if (m.noiseSigma > 0.0)
        measured *= measurementRng.lognormal(0.0, m.noiseSigma);
    return std::max(0.0, measured);
}

bool
FaultInjector::forceCaptureDifferent(Tick now)
{
    while (burstCursor < windows_.size()) {
        const Window &w = windows_[burstCursor];
        // Captures query monotonically; skip windows fully behind
        // `now` and every non-burst window.
        if (w.cls != FaultClass::ArrivalBurst || w.end <= now) {
            ++burstCursor;
            continue;
        }
        return now >= w.start;
    }
    return false;
}

Tick
FaultInjector::captureJitter()
{
    const Tick j = spec_.arrivals.captureJitterMs;
    if (j <= 0)
        return 0;
    return jitterRng.uniformInt(-j, j);
}

Tick
FaultInjector::perturbExecutionTicks(Tick ticks)
{
    const ExecutionFault &e = spec_.execution;
    if (!e.active())
        return ticks;
    if (!executionRng.bernoulli(e.overrunProbability))
        return ticks;
    const Tick stretched = std::max<Tick>(
        ticks + 1,
        static_cast<Tick>(std::llround(
            static_cast<double>(ticks) * e.overrunFactor)));
    emitInjected(FaultClass::ExecOverrun, 0, e.overrunFactor);
    return stretched;
}

void
FaultInjector::observePrediction(double predictedSeconds,
                                 double observedSeconds, double pidOutput)
{
    const double error = observedSeconds - predictedSeconds;
    const double magnitude = std::abs(error);
    const double threshold = spec_.detectErrorSeconds;

    if (!inEpisode) {
        if (magnitude <= threshold)
            return;
        inEpisode = true;
        calmStreak = 0;
        ++detected_;
        ++episodeSeq;
        if (observer_ != nullptr &&
            observer_->wants(obs::EventKind::FaultDetected)) {
            obs::Event event;
            event.kind = obs::EventKind::FaultDetected;
            event.id = episodeSeq;
            event.a = error;
            event.b = threshold;
            observer_->record(event);
        }
        return;
    }

    if (magnitude > threshold) {
        calmStreak = 0;
        return;
    }
    ++calmStreak;
    if (calmStreak < spec_.mitigateStreak)
        return;
    inEpisode = false;
    ++mitigated_;
    if (observer_ != nullptr &&
        observer_->wants(obs::EventKind::FaultMitigated)) {
        obs::Event event;
        event.kind = obs::EventKind::FaultMitigated;
        event.id = episodeSeq;
        event.value = calmStreak;
        event.a = error;
        event.b = pidOutput;
        observer_->record(event);
    }
    calmStreak = 0;
}

void
FaultInjector::Window::walk(util::wire::Archive &ar)
{
    ar.varint(start);
    ar.varint(end);
    ar.enumeration(cls, kFaultClassCount);
    ar.real(magnitude);
}

void
FaultInjector::checkpoint(util::wire::Archive &ar)
{
    bool wasPrepared = prepared;
    ar.flag(wasPrepared);
    ar.check(wasPrepared == prepared);
    util::Rng::State rngs[] = {
        measurementRng.exportState(), executionRng.exportState(),
        jitterRng.exportState(), windowRng.exportState()};
    for (util::Rng::State &rng : rngs)
        rng.walk(ar);
    std::vector<Window> windows = windows_;
    windows.resize(ar.count(windows.size()));
    for (Window &window : windows)
        window.walk(ar);
    std::size_t pending = pendingWindow;
    std::size_t burst = burstCursor;
    ar.varint(pending);
    ar.varint(burst);
    ar.check(pending <= windows.size() && burst <= windows.size());
    std::uint64_t counts[] = {injected_, detected_, mitigated_};
    for (std::uint64_t &count : counts)
        ar.varint(count);
    bool episode = inEpisode;
    std::uint32_t calm = calmStreak;
    std::uint64_t seq = episodeSeq;
    ar.flag(episode);
    ar.varint(calm);
    ar.varint(seq);
    if (!ar.loaded())
        return;

    measurementRng.importState(rngs[0]);
    executionRng.importState(rngs[1]);
    jitterRng.importState(rngs[2]);
    windowRng.importState(rngs[3]);
    windows_ = std::move(windows);
    pendingWindow = pending;
    burstCursor = burst;
    injected_ = counts[0];
    detected_ = counts[1];
    mitigated_ = counts[2];
    inEpisode = episode;
    calmStreak = calm;
    episodeSeq = seq;
}

} // namespace fault
} // namespace quetzal
