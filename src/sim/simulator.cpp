#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>

#include "fault/fault_injector.hpp"
#include "util/logging.hpp"

namespace quetzal {
namespace sim {

namespace {

/** Input-buffer capacity for a run (bounded even when "infinite"). */
std::size_t
effectiveCapacity(const SimulationConfig &cfg, Tick horizon)
{
    if (!cfg.infiniteBuffer)
        return cfg.bufferCapacity;
    // Large enough that it can never fill: one slot per capture that
    // could ever occur, plus re-insertions.
    return static_cast<std::size_t>(horizon / cfg.capturePeriod) * 2 + 64;
}

/** Nominal (1 FPS) interesting-input count of an event trace. */
std::uint64_t
nominalInterestingInputs(const trace::EventTrace &events)
{
    std::uint64_t count = 0;
    for (const auto &event : events.data()) {
        if (!event.interesting)
            continue;
        // Capture instants are the ticks k * 1000, k >= 1.
        const Tick first =
            std::max<Tick>(((event.start + kTicksPerSecond - 1) /
                            kTicksPerSecond) * kTicksPerSecond,
                           kTicksPerSecond);
        if (first >= event.end())
            continue;
        count += static_cast<std::uint64_t>(
            (event.end() - 1 - first) / kTicksPerSecond) + 1;
    }
    return count;
}

} // namespace

Simulator::Simulator(const SimulationConfig &config,
                     const app::DeviceProfile &deviceProfile,
                     const app::ApplicationModel &application,
                     core::TaskSystem &system_,
                     core::Controller &controller_,
                     const energy::PowerTrace &watts_,
                     const trace::EventTrace &events_)
    : cfg(config), appModel(application), system(system_),
      controller(controller_), watts(watts_), events(events_),
      device(deviceProfile, watts_),
      buffer(effectiveCapacity(config,
                               events_.endTime() + config.drainTicks)),
      outcomeRng(config.outcomeSeed),
      schedPowerCursor(watts_.cursor()), captureCursor(events_.cursor()),
      jitterRng(config.outcomeSeed ^ 0x9177e2ull)
{
    if (cfg.executionJitterSigma < 0.0)
        util::fatal("execution jitter sigma must be non-negative");
    if (cfg.capturePeriod <= 0)
        util::fatal("capture period must be positive");
}

Metrics
Simulator::run()
{
    metrics.eventsTotal = events.size();
    metrics.eventsInteresting = events.interestingCount();
    metrics.interestingInputsNominal = nominalInterestingInputs(events);

    const Tick horizon = events.endTime() + cfg.drainTicks;
    // Safety cap for drain-to-empty runs: beyond this we account the
    // backlog as unprocessed rather than simulating forever.
    const Tick hardCap = horizon * 4 + 3600 * kTicksPerSecond;

    nextCheckpointAtCaptures = cfg.checkpointEveryCaptures;

    const Tick now = runLoop(horizon, hardCap);

    if (stoppedAtCheckpoint_) {
        // The run was cut at a checkpoint boundary on request: skip
        // the end-of-run accounting and lifecycle events so the
        // segment's trace ends exactly where the resumed segment's
        // begins.
        metrics.simulatedTicks = now;
        return metrics;
    }

    obs::Recorder *const observer = cfg.observer;

    // A job the horizon cut off still owes its prediction an outcome
    // event (flagged unfinished) so traces keep the one-outcome-per-
    // decision invariant.
    if (observer != nullptr && activeJob &&
        observer->wants(obs::EventKind::IboOutcome)) {
        observer->setTime(now);
        obs::Event event;
        event.kind = obs::EventKind::IboOutcome;
        event.id = activeJob->selection.decisionSeq;
        event.value = static_cast<std::int64_t>(
            totalDrops() - activeJob->dropsAtStart);
        event.flags |= obs::kFlagUnfinished;
        if (activeJob->selection.iboPredicted)
            event.flags |= obs::kFlagIboPredicted;
        if (event.value > 0)
            event.flags |= obs::kFlagOverflowed;
        observer->record(event);
    }

    accountLeftovers();

    metrics.simulatedTicks = now;
    metrics.energyWastedJoules = device.store().rejectedHarvest();
    metrics.powerFailures = device.stats().powerFailures;
    metrics.checkpointSaves = device.stats().checkpointSaves;
    metrics.rechargeTicks = device.stats().rechargeTicks;
    metrics.activeTicks = device.stats().activeTicks;
    metrics.rolledBackTicks = device.stats().rolledBackTicks;

    const core::ControllerStats &cs = controller.stats();
    metrics.degradedJobs = cs.degradedJobs;
    metrics.iboPredictions = cs.iboPredictions;
    metrics.predictionErrorSeconds = cs.predictionError;

    if (observer != nullptr && observer->enabled()) {
        observer->setTime(now);
        recordDeviceObs();
        if (observer->wants(obs::EventKind::RunEnd)) {
            obs::Event event;
            event.kind = obs::EventKind::RunEnd;
            event.id = metrics.eventsTotal;
            event.value =
                static_cast<std::int64_t>(metrics.interestingInputsNominal);
            event.extra =
                static_cast<std::int64_t>(metrics.unprocessedInteresting);
            event.a = static_cast<double>(metrics.eventsInteresting);
            event.b = static_cast<double>(metrics.simulatedTicks);
            observer->record(event);
        }
    }

    return metrics;
}

Tick
Simulator::runLoop(Tick horizon, Tick hardCap)
{
    Tick now = 0;
    // Nominal capture instants are k * capturePeriod; the fault layer
    // may jitter each actual instant around its nominal one.
    Tick nominalCapture = cfg.capturePeriod;
    Tick nextCapture = nominalCapture;
    if (cfg.resumeState != nullptr) {
        // Mid-run rehydration: every component resumes exactly where
        // the checkpointed run stood at this capture boundary. The
        // run-start hooks (faults->onRunStart, the initial jitter
        // draw) already happened in the first segment, so they are
        // skipped — their RNG draws live in the restored streams.
        restoreCheckpoint(now, nominalCapture, nextCapture);
    } else if (cfg.faults != nullptr) {
        cfg.faults->onRunStart();
        nextCapture = std::max<Tick>(
            1, nominalCapture + cfg.faults->captureJitter());
    }
    int zeroProgressStreak = 0;

    obs::Recorder *const observer = cfg.observer;

    while (true) {
        const bool capturing = now < horizon;
        // Checkpoint at quiescent capture boundaries, before any of
        // the instant's observation or control acts — the boundary
        // cleanly splits the run's observable timeline into
        // "strictly before now" (already flushed) and "now onward"
        // (replayed by the resumed segment).
        if (checkpointDue(capturing, now, nextCapture)) {
            saveCheckpoint(now, nominalCapture, nextCapture);
            if (cfg.checkpointStop) {
                stoppedAtCheckpoint_ = true;
                return now;
            }
        }

        if (observer != nullptr)
            observer->setTime(now);
        if (cfg.faults != nullptr)
            cfg.faults->onTick(now);

        if (!capturing) {
            const bool pendingWork = activeJob.has_value() ||
                !buffer.empty();
            if (!pendingWork || !cfg.drainToEmpty || now >= hardCap)
                break;
        }

        if (capturing && now == nextCapture) {
            processCapture(now);
            nominalCapture += cfg.capturePeriod;
            nextCapture = nominalCapture;
            if (cfg.faults != nullptr) {
                // Jitter never reorders captures: the next actual
                // instant stays strictly after the current one.
                nextCapture = std::max<Tick>(
                    now + 1, nominalCapture + cfg.faults->captureJitter());
            }
            if (observer != nullptr &&
                observer->wants(obs::EventKind::BufferOccupancy)) {
                obs::Event event;
                event.kind = obs::EventKind::BufferOccupancy;
                event.value = static_cast<std::int64_t>(buffer.size());
                event.extra =
                    static_cast<std::int64_t>(buffer.capacity());
                observer->record(event);
            }
        }

        if (!activeJob)
            tryBeginJob(now);

        const Tick limit = capturing ? std::min(nextCapture, horizon)
                                     : hardCap;
        const bool hadTask = device.taskActive();
        const Tick reached = device.advance(now, limit);

        // The loop must advance simulated time (the device model
        // guarantees forward progress whenever limit > now); a stuck
        // clock means a malformed configuration — panic rather than
        // spin forever.
        if (reached > now) {
            zeroProgressStreak = 0;
        } else if (++zeroProgressStreak > 2) {
            util::panic(util::msg(
                "Simulator::run made no time progress for ",
                zeroProgressStreak, " iterations at tick ", now,
                " (limit ", limit, ", buffer ", buffer.size(),
                ", job active ", activeJob.has_value(),
                "): malformed experiment configuration"));
        }
        now = reached;

        if (observer != nullptr) {
            observer->setTime(now);
            if (observer->enabled())
                recordDeviceObs();
        }

        if (hadTask && !device.taskActive() && activeJob) {
            onTaskFinished(now);
        } else if (!activeJob && buffer.empty() && !capturing) {
            break;
        }
    }
    return now;
}

void
Simulator::recordDeviceObs()
{
    const DeviceStats &ds = device.stats();
    obs::Recorder *const observer = cfg.observer;
    if ((ds.powerFailures != obsDevice.powerFailures ||
         ds.checkpointSaves != obsDevice.checkpointSaves) &&
        observer->wants(obs::EventKind::PowerFailure)) {
        obs::Event event;
        event.kind = obs::EventKind::PowerFailure;
        event.value = static_cast<std::int64_t>(
            ds.powerFailures - obsDevice.powerFailures);
        event.extra = static_cast<std::int64_t>(
            ds.checkpointSaves - obsDevice.checkpointSaves);
        observer->record(event);
    }
    if (ds.rechargeTicks != obsDevice.rechargeTicks &&
        observer->wants(obs::EventKind::RechargeInterval)) {
        obs::Event event;
        event.kind = obs::EventKind::RechargeInterval;
        event.value = static_cast<std::int64_t>(
            ds.rechargeTicks - obsDevice.rechargeTicks);
        observer->record(event);
    }
    obsDevice = ds;
}

void
Simulator::chargeTelemetry()
{
    // Off by default: with both rates at 0 this never touches the
    // device, so recording stays observation-only (byte-inert).
    if (cfg.observer == nullptr ||
        (cfg.telemetrySecondsPerEvent <= 0.0 &&
         cfg.telemetryEnergyPerEvent <= 0.0))
        return;
    const auto recorded =
        static_cast<std::int64_t>(cfg.observer->recordedCount());
    const std::int64_t fresh = recorded - telemetryChargedEvents;
    if (fresh <= 0)
        return;
    telemetryChargedEvents = recorded;
    const double seconds =
        static_cast<double>(fresh) * cfg.telemetrySecondsPerEvent;
    const Joules energy =
        static_cast<double>(fresh) * cfg.telemetryEnergyPerEvent;
    metrics.telemetryOverheadSeconds += seconds;
    metrics.telemetryOverheadEnergy += energy;
    device.drawInstantaneous(energy);
    // The time cost rides the scheduler-overhead carry: it surfaces
    // as extra overhead-phase ticks on this or a later round.
    overheadCarrySeconds += seconds;
}

void
Simulator::tryBeginJob(Tick now)
{
    if (buffer.empty())
        return;

    // Measurement-overhead accounting: the events recorded since the
    // last scheduling round cost MCU time and energy *on the device*
    // when the estimator path is instrumented for real.
    chargeTelemetry();

    // The controller schedules against the *measured* input power;
    // the fault layer can make that measurement lie while the
    // device's true harvested energy stays untouched.
    const Watts truePower = schedPowerCursor.valueAt(now);
    const Watts measuredPower = cfg.faults != nullptr
        ? cfg.faults->perturbMeasuredPower(truePower) : truePower;
    const core::RuntimeObservation runtime{
        device.energy(), device.store().capacity(), now};
    const auto selection =
        controller.selectJob(system, buffer, measuredPower, runtime);
    if (!selection)
        return;

    ActiveJob job;
    job.selection = *selection;
    job.input = buffer.markInFlight(selection->slot);
    job.jobStart = now;
    job.dropsAtStart = totalDrops();
    executedScratch.assign(
        system.job(selection->jobId).tasks.size(), true);
    job.executed = std::move(executedScratch);
    activeJob = std::move(job);

    // Charge the controller's modeled invocation cost (section 6.3:
    // "we evaluated any scheduling policy and degradation-logic ...
    // incurring its overheads").
    metrics.schedulerOverheadSeconds += cfg.schedulerOverheadSeconds;
    metrics.schedulerOverheadEnergy += cfg.schedulerOverheadEnergy;
    device.drawInstantaneous(cfg.schedulerOverheadEnergy);

    overheadCarrySeconds += cfg.schedulerOverheadSeconds;
    const auto overheadTicks = static_cast<Tick>(
        std::floor(overheadCarrySeconds *
                   static_cast<double>(kTicksPerSecond)));
    if (overheadTicks > 0) {
        overheadCarrySeconds -=
            ticksToSeconds(overheadTicks);
        inOverheadPhase = true;
        device.startTask(cfg.schedulerPower, overheadTicks);
        return;
    }
    startNextTask(now);
}

void
Simulator::startNextTask(Tick now)
{
    const core::Job &job = system.job(activeJob->selection.jobId);
    if (activeJob->taskPos >= job.tasks.size()) {
        finishJob(now);
        return;
    }
    const core::Task &task = system.task(job.tasks[activeJob->taskPos]);
    const std::size_t optionIndex =
        activeJob->selection.optionPerTask[activeJob->taskPos];
    const core::DegradationOption &option = task.option(optionIndex);
    activeJob->taskStart = now;
    Tick exeTicks = option.exeTicks;
    if (cfg.executionJitterSigma > 0.0) {
        // Variable execution costs: the profiled latency is only the
        // median of a log-normal (paper section 5.2 future work).
        const double factor =
            jitterRng.lognormal(0.0, cfg.executionJitterSigma);
        exeTicks = std::max<Tick>(
            static_cast<Tick>(std::llround(
                static_cast<double>(exeTicks) * factor)),
            1);
    }
    if (cfg.faults != nullptr)
        exeTicks = cfg.faults->perturbExecutionTicks(exeTicks);
    device.startTask(option.execPower, exeTicks);
}

void
Simulator::onTaskFinished(Tick now)
{
    if (inOverheadPhase) {
        inOverheadPhase = false;
        startNextTask(now);
        return;
    }

    const core::Job &job = system.job(activeJob->selection.jobId);
    const core::TaskId taskId = job.tasks[activeJob->taskPos];
    const std::size_t optionIndex =
        activeJob->selection.optionPerTask[activeJob->taskPos];
    const double observed = ticksToSeconds(now - activeJob->taskStart);
    controller.onTaskComplete(system, taskId, optionIndex, observed);

    if (cfg.observer != nullptr &&
        cfg.observer->wants(obs::EventKind::TaskComplete)) {
        obs::Event event;
        event.kind = obs::EventKind::TaskComplete;
        event.id = activeJob->selection.decisionSeq;
        event.value = static_cast<std::int64_t>(taskId);
        event.extra = static_cast<std::int64_t>(optionIndex);
        event.a = observed;
        cfg.observer->record(event);
    }

    ++activeJob->taskPos;
    startNextTask(now);
}

void
Simulator::finishJob(Tick now)
{
    const core::Job &job = system.job(activeJob->selection.jobId);
    const double observedJob = ticksToSeconds(now - activeJob->jobStart);
    controller.onJobComplete(system, activeJob->selection,
                             activeJob->executed, observedJob);
    if (cfg.faults != nullptr) {
        cfg.faults->observePrediction(
            activeJob->selection.predictedServiceSeconds, observedJob,
            controller.pidCorrection());
    }
    ++metrics.jobsCompleted;
    metrics.jobServiceSeconds.add(observedJob);
    // Deadline: an input should leave the system before the buffer
    // could cycle once at the nominal capture rate (capacity x
    // period) — the natural staleness bound for a sensing pipeline.
    if (now - activeJob->input.captureTick >
        static_cast<Tick>(cfg.bufferCapacity) * cfg.capturePeriod)
        ++metrics.deadlineMisses;

    const queueing::InputRecord &input = activeJob->input;

    std::uint32_t jobFlags = 0;
    if (input.interesting)
        jobFlags |= obs::kFlagInteresting;

    if (job.id == appModel.classifyJob) {
        // Which option the (degradable) inference task ran at. The
        // position is resolved at application-build time; fall back
        // to the scan for hand-built models that never resolved it.
        std::size_t mlOption = 0;
        if (appModel.inferenceTaskPos) {
            mlOption = activeJob->selection
                .optionPerTask[*appModel.inferenceTaskPos];
        } else {
            for (std::size_t i = 0; i < job.tasks.size(); ++i) {
                if (job.tasks[i] == appModel.inferenceTask)
                    mlOption = activeJob->selection.optionPerTask[i];
            }
        }
        const bool positive = appModel.classifyPositive(
            outcomeRng, mlOption, input.interesting);
        jobFlags |= obs::kFlagClassify;
        if (positive)
            jobFlags |= obs::kFlagPositive;
        if (positive) {
            if (!input.interesting)
                ++metrics.fpPositives;
            if (job.onPositive) {
                // Spawn (section 3.1): the input already owns its
                // memory slot; it is retagged, never re-inserted —
                // but it is a fresh queue arrival for lambda.
                buffer.retagSlot(activeJob->selection.slot,
                                *job.onPositive, now);
                system.recordSpawn();
            } else {
                buffer.releaseSlot(activeJob->selection.slot);
            }
        } else {
            if (input.interesting)
                ++metrics.fnDiscards;
            buffer.releaseSlot(activeJob->selection.slot);
        }
    } else if (job.id == appModel.transmitJob) {
        std::size_t radioOption = 0;
        if (appModel.radioTaskPos) {
            radioOption = activeJob->selection
                .optionPerTask[*appModel.radioTaskPos];
        } else {
            for (std::size_t i = 0; i < job.tasks.size(); ++i) {
                if (job.tasks[i] == appModel.radioTask)
                    radioOption = activeJob->selection.optionPerTask[i];
            }
        }
        const bool highQuality = radioOption == 0;
        jobFlags |= obs::kFlagTransmit;
        if (highQuality)
            jobFlags |= obs::kFlagHighQuality;
        if (input.interesting) {
            if (highQuality)
                ++metrics.txInterestingHq;
            else
                ++metrics.txInterestingLq;
        } else {
            if (highQuality)
                ++metrics.txUninterestingHq;
            else
                ++metrics.txUninterestingLq;
        }
        buffer.releaseSlot(activeJob->selection.slot);
    } else {
        // Unknown terminal job: the input leaves the system.
        buffer.releaseSlot(activeJob->selection.slot);
    }

    if (cfg.observer != nullptr) {
        if (cfg.observer->wants(obs::EventKind::JobComplete)) {
            obs::Event event;
            event.kind = obs::EventKind::JobComplete;
            event.id = input.id;
            event.value = static_cast<std::int64_t>(job.id);
            event.extra = static_cast<std::int64_t>(
                activeJob->selection.decisionSeq);
            event.a = observedJob;
            event.flags = jobFlags;
            cfg.observer->record(event);
        }
        if (cfg.observer->wants(obs::EventKind::IboOutcome)) {
            obs::Event event;
            event.kind = obs::EventKind::IboOutcome;
            event.id = activeJob->selection.decisionSeq;
            event.value = static_cast<std::int64_t>(
                totalDrops() - activeJob->dropsAtStart);
            if (activeJob->selection.iboPredicted)
                event.flags |= obs::kFlagIboPredicted;
            if (event.value > 0)
                event.flags |= obs::kFlagOverflowed;
            cfg.observer->record(event);
        }
    }

    executedScratch = std::move(activeJob->executed);
    activeJob.reset();
}

void
Simulator::accountLeftovers()
{
    // In-flight records still live in the buffer, so this single
    // scan covers a job interrupted by the horizon as well.
    buffer.forEachFifo([this](queueing::SlotId,
                              const queueing::InputRecord &rec) {
        if (rec.interesting)
            ++metrics.unprocessedInteresting;
    });
}

} // namespace sim
} // namespace quetzal
