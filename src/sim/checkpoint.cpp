/**
 * @file
 * Checkpoint/restore of full simulator state (DESIGN.md section 16):
 * the Simulator's quiescent-boundary save/restore hooks plus the
 * QZCK archive framing and the experiment fingerprint.
 *
 * The state blob is a pure byte serialization — varints, zigzag
 * ticks, bit-exact doubles — of everything mutable in a run:
 *
 *   loop clocks | device | input buffer | metrics | outcome/jitter
 *   RNG streams | trace cursor positions | overhead carry |
 *   next input id | obs-device snapshot | telemetry tail |
 *   TaskSystem blob | Controller blob | FaultInjector blob
 *
 * Saving draws no randomness, records no events and mutates nothing,
 * so a checkpointing run stays byte-identical to a clean one; a
 * resumed run replays the uninterrupted run's observable timeline
 * exactly (golden-tested in tests/sim/test_checkpoint_resume.cpp).
 */

#include "sim/checkpoint.hpp"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>
#include <utility>

#include "fault/fault_injector.hpp"
#include "sim/simulator.hpp"
#include "util/logging.hpp"
#include "util/wire.hpp"

namespace quetzal {
namespace sim {

namespace wire = util::wire;

namespace {

void
putRunningStats(std::string &out, const util::RunningStats &stats)
{
    const util::RunningStats::State s = stats.exportState();
    wire::putVarint(out, static_cast<std::uint64_t>(s.n));
    wire::putDouble(out, s.runningMean);
    wire::putDouble(out, s.m2);
    wire::putDouble(out, s.minSample);
    wire::putDouble(out, s.maxSample);
    wire::putDouble(out, s.total);
}

bool
getRunningStats(wire::Reader &in, util::RunningStats &stats)
{
    util::RunningStats::State s;
    std::uint64_t n = 0;
    if (!in.getVarint(n) || !in.getDouble(s.runningMean) ||
        !in.getDouble(s.m2) || !in.getDouble(s.minSample) ||
        !in.getDouble(s.maxSample) || !in.getDouble(s.total))
        return false;
    s.n = static_cast<std::size_t>(n);
    stats.importState(s);
    return true;
}

void
putRng(std::string &out, const util::Rng &rng)
{
    const util::Rng::State s = rng.exportState();
    for (const std::uint64_t word : s.words)
        wire::putFixed64(out, word);
    wire::putDouble(out, s.cachedNormal);
    out.push_back(s.hasCachedNormal ? '\1' : '\0');
}

bool
getRng(wire::Reader &in, util::Rng &rng)
{
    util::Rng::State s;
    for (std::uint64_t &word : s.words) {
        if (!in.getFixed64(word))
            return false;
    }
    std::uint8_t cached = 0;
    if (!in.getDouble(s.cachedNormal) || !in.getByte(cached))
        return false;
    s.hasCachedNormal = cached != 0;
    rng.importState(s);
    return true;
}

void
putDeviceStats(std::string &out, const DeviceStats &stats)
{
    wire::putVarint(out, stats.powerFailures);
    wire::putVarint(out, stats.checkpointSaves);
    wire::putVarint(out, static_cast<std::uint64_t>(stats.rechargeTicks));
    wire::putVarint(out, static_cast<std::uint64_t>(stats.activeTicks));
    wire::putVarint(out,
                    static_cast<std::uint64_t>(stats.rolledBackTicks));
}

bool
getDeviceStats(wire::Reader &in, DeviceStats &stats)
{
    std::uint64_t recharge = 0;
    std::uint64_t active = 0;
    std::uint64_t rolledBack = 0;
    if (!in.getVarint(stats.powerFailures) ||
        !in.getVarint(stats.checkpointSaves) ||
        !in.getVarint(recharge) || !in.getVarint(active) ||
        !in.getVarint(rolledBack))
        return false;
    stats.rechargeTicks = static_cast<Tick>(recharge);
    stats.activeTicks = static_cast<Tick>(active);
    stats.rolledBackTicks = static_cast<Tick>(rolledBack);
    return true;
}

/** Decode a non-negative tick serialized as a plain varint. */
bool
getTick(wire::Reader &in, Tick &tick)
{
    std::uint64_t value = 0;
    if (!in.getVarint(value))
        return false;
    tick = static_cast<Tick>(value);
    return tick >= 0;
}

[[noreturn]] void
malformed(const char *where)
{
    util::fatal(util::msg(
        "checkpoint restore failed: malformed or mismatched state (",
        where,
        "); the resume blob must come from an identically-configured "
        "run"));
}

} // namespace

bool
Simulator::checkpointDue(bool capturing, Tick now, Tick nextCapture) const
{
    // Quiescent capture boundary: the run is between jobs (no task or
    // overhead phase on the device), the capture at `now` has not been
    // processed yet, and enough captures have landed since the last
    // save. Everything live is then owned by a member — no ActiveJob,
    // no half-spent device phase — so the blob stays small and the
    // restore path simple.
    return cfg.checkpointEveryCaptures > 0 && capturing &&
        now == nextCapture && !activeJob && !inOverheadPhase &&
        metrics.captures >= nextCheckpointAtCaptures;
}

void
Simulator::saveCheckpoint(Tick now, Tick nominalCapture, Tick nextCapture)
{
    std::string out;
    out.reserve(1024);

    // Loop clocks.
    wire::putVarint(out, static_cast<std::uint64_t>(now));
    wire::putVarint(out, static_cast<std::uint64_t>(nominalCapture));
    wire::putVarint(out, static_cast<std::uint64_t>(nextCapture));

    // Device.
    const Device::CheckpointState dev = device.exportCheckpoint();
    wire::putDouble(out, dev.energy);
    wire::putDouble(out, dev.rejectedHarvest);
    out.push_back(static_cast<char>(dev.phase));
    wire::putDouble(out, dev.taskPower);
    wire::putVarint(out,
                    static_cast<std::uint64_t>(dev.remainingTaskTicks));
    wire::putVarint(out,
                    static_cast<std::uint64_t>(dev.remainingPhaseTicks));
    wire::putVarint(out,
                    static_cast<std::uint64_t>(dev.progressSinceSave));
    out.push_back(dev.periodicSaveInProgress ? '\1' : '\0');
    wire::putVarint(out, static_cast<std::uint64_t>(dev.cursorIndex));
    putDeviceStats(out, dev.stats);

    // Input buffer (exportState panics on in-flight records — the
    // quiescence assertion).
    const queueing::InputBuffer::State buf = buffer.exportState();
    wire::putVarint(out, buf.records.size());
    for (const queueing::InputRecord &rec : buf.records) {
        wire::putVarint(out, rec.id);
        wire::putVarint(out, static_cast<std::uint64_t>(rec.captureTick));
        wire::putVarint(out, static_cast<std::uint64_t>(rec.enqueueTick));
        wire::putVarint(out, static_cast<std::uint64_t>(rec.jobId));
        out.push_back(rec.interesting ? '\1' : '\0');
    }
    wire::putVarint(out, buf.overflows.total);
    wire::putVarint(out, buf.overflows.interesting);
    wire::putVarint(out, buf.maxPushedId);
    out.push_back(buf.anyIdPushed ? '\1' : '\0');
    out.push_back(buf.captureStrictlyIncreasing ? '\1' : '\0');
    out.push_back(buf.anyPush ? '\1' : '\0');
    wire::putZigzag(out, buf.lastPushCaptureTick);

    // Metrics, in declaration order.
    wire::putVarint(out, metrics.eventsTotal);
    wire::putVarint(out, metrics.eventsInteresting);
    wire::putVarint(out, metrics.interestingInputsNominal);
    wire::putVarint(out, metrics.captures);
    wire::putVarint(out, metrics.interestingCaptured);
    wire::putVarint(out, metrics.uninterestingCaptured);
    wire::putVarint(out, metrics.storedInputs);
    wire::putVarint(out, metrics.iboDropsInteresting);
    wire::putVarint(out, metrics.iboDropsUninteresting);
    wire::putVarint(out, metrics.fnDiscards);
    wire::putVarint(out, metrics.fpPositives);
    wire::putVarint(out, metrics.unprocessedInteresting);
    wire::putVarint(out, metrics.txInterestingHq);
    wire::putVarint(out, metrics.txInterestingLq);
    wire::putVarint(out, metrics.txUninterestingHq);
    wire::putVarint(out, metrics.txUninterestingLq);
    wire::putVarint(out, metrics.jobsCompleted);
    wire::putVarint(out, metrics.degradedJobs);
    wire::putVarint(out, metrics.iboPredictions);
    wire::putVarint(out, metrics.powerFailures);
    wire::putVarint(out, metrics.checkpointSaves);
    wire::putVarint(out,
                    static_cast<std::uint64_t>(metrics.rechargeTicks));
    wire::putVarint(out,
                    static_cast<std::uint64_t>(metrics.activeTicks));
    wire::putVarint(out,
                    static_cast<std::uint64_t>(metrics.rolledBackTicks));
    wire::putVarint(out,
                    static_cast<std::uint64_t>(metrics.simulatedTicks));
    wire::putVarint(out, metrics.deadlineMisses);
    wire::putDouble(out, metrics.energyWastedJoules);
    wire::putDouble(out, metrics.schedulerOverheadSeconds);
    wire::putDouble(out, metrics.schedulerOverheadEnergy);
    wire::putDouble(out, metrics.telemetryOverheadSeconds);
    wire::putDouble(out, metrics.telemetryOverheadEnergy);
    putRunningStats(out, metrics.jobServiceSeconds);
    putRunningStats(out, metrics.predictionErrorSeconds);

    // Simulator-owned RNG streams and trace cursors.
    putRng(out, outcomeRng);
    putRng(out, jitterRng);
    wire::putVarint(out,
                    static_cast<std::uint64_t>(schedPowerCursor.position()));
    wire::putVarint(out,
                    static_cast<std::uint64_t>(captureCursor.position()));
    wire::putDouble(out, overheadCarrySeconds);
    wire::putVarint(out, nextInputId);
    putDeviceStats(out, obsDevice);

    // Telemetry self-cost tail: recorder events stored but not yet
    // charged. The resumed run starts a fresh recorder at zero, so it
    // carries the tail as a negative charged-count offset.
    const std::int64_t pendingUncharged = cfg.observer != nullptr
        ? static_cast<std::int64_t>(cfg.observer->recordedCount()) -
            telemetryChargedEvents
        : 0;
    wire::putZigzag(out, pendingUncharged);

    // Length-prefixed component blobs.
    std::string blob;
    system.saveCheckpoint(blob);
    wire::putBytes(out, blob);
    blob.clear();
    controller.saveCheckpoint(blob);
    wire::putBytes(out, blob);
    out.push_back(cfg.faults != nullptr ? '\1' : '\0');
    if (cfg.faults != nullptr) {
        blob.clear();
        cfg.faults->saveCheckpoint(blob);
        wire::putBytes(out, blob);
    }

    nextCheckpointAtCaptures =
        (metrics.captures / cfg.checkpointEveryCaptures + 1) *
        cfg.checkpointEveryCaptures;
    if (cfg.checkpointSink)
        cfg.checkpointSink(std::move(out), now);
}

void
Simulator::restoreCheckpoint(Tick &now, Tick &nominalCapture,
                             Tick &nextCapture)
{
    wire::Reader in(*cfg.resumeState);

    if (!getTick(in, now) || !getTick(in, nominalCapture) ||
        !getTick(in, nextCapture))
        malformed("loop clocks");

    Device::CheckpointState dev;
    std::uint8_t phase = 0;
    std::uint8_t periodicSave = 0;
    std::uint64_t remainingTask = 0;
    std::uint64_t remainingPhase = 0;
    std::uint64_t progress = 0;
    std::uint64_t cursorIndex = 0;
    if (!in.getDouble(dev.energy) || !in.getDouble(dev.rejectedHarvest) ||
        !in.getByte(phase) || !in.getDouble(dev.taskPower) ||
        !in.getVarint(remainingTask) || !in.getVarint(remainingPhase) ||
        !in.getVarint(progress) || !in.getByte(periodicSave) ||
        !in.getVarint(cursorIndex) || !getDeviceStats(in, dev.stats))
        malformed("device state");
    if (phase > static_cast<std::uint8_t>(DevicePhase::Restoring))
        malformed("device phase");
    dev.phase = static_cast<DevicePhase>(phase);
    dev.remainingTaskTicks = static_cast<Tick>(remainingTask);
    dev.remainingPhaseTicks = static_cast<Tick>(remainingPhase);
    dev.progressSinceSave = static_cast<Tick>(progress);
    dev.periodicSaveInProgress = periodicSave != 0;
    dev.cursorIndex = static_cast<std::size_t>(cursorIndex);

    queueing::InputBuffer::State buf;
    std::uint64_t recordCount = 0;
    if (!in.getVarint(recordCount) || recordCount > in.remaining())
        malformed("buffer record count");
    if (recordCount > buffer.capacity())
        malformed("buffer record count exceeds capacity");
    buf.records.reserve(static_cast<std::size_t>(recordCount));
    for (std::uint64_t i = 0; i < recordCount; ++i) {
        queueing::InputRecord rec;
        std::uint64_t jobId = 0;
        std::uint8_t interesting = 0;
        if (!in.getVarint(rec.id) || !getTick(in, rec.captureTick) ||
            !getTick(in, rec.enqueueTick) || !in.getVarint(jobId) ||
            !in.getByte(interesting))
            malformed("buffer record");
        rec.jobId = static_cast<queueing::JobId>(jobId);
        rec.interesting = interesting != 0;
        buf.records.push_back(rec);
    }
    std::uint8_t anyIdPushed = 0;
    std::uint8_t strictlyIncreasing = 0;
    std::uint8_t anyPush = 0;
    if (!in.getVarint(buf.overflows.total) ||
        !in.getVarint(buf.overflows.interesting) ||
        !in.getVarint(buf.maxPushedId) || !in.getByte(anyIdPushed) ||
        !in.getByte(strictlyIncreasing) || !in.getByte(anyPush) ||
        !in.getZigzag(buf.lastPushCaptureTick))
        malformed("buffer counters");
    buf.anyIdPushed = anyIdPushed != 0;
    buf.captureStrictlyIncreasing = strictlyIncreasing != 0;
    buf.anyPush = anyPush != 0;

    Metrics m;
    std::uint64_t recharge = 0;
    std::uint64_t active = 0;
    std::uint64_t rolledBack = 0;
    std::uint64_t simulated = 0;
    if (!in.getVarint(m.eventsTotal) ||
        !in.getVarint(m.eventsInteresting) ||
        !in.getVarint(m.interestingInputsNominal) ||
        !in.getVarint(m.captures) ||
        !in.getVarint(m.interestingCaptured) ||
        !in.getVarint(m.uninterestingCaptured) ||
        !in.getVarint(m.storedInputs) ||
        !in.getVarint(m.iboDropsInteresting) ||
        !in.getVarint(m.iboDropsUninteresting) ||
        !in.getVarint(m.fnDiscards) || !in.getVarint(m.fpPositives) ||
        !in.getVarint(m.unprocessedInteresting) ||
        !in.getVarint(m.txInterestingHq) ||
        !in.getVarint(m.txInterestingLq) ||
        !in.getVarint(m.txUninterestingHq) ||
        !in.getVarint(m.txUninterestingLq) ||
        !in.getVarint(m.jobsCompleted) || !in.getVarint(m.degradedJobs) ||
        !in.getVarint(m.iboPredictions) || !in.getVarint(m.powerFailures) ||
        !in.getVarint(m.checkpointSaves) || !in.getVarint(recharge) ||
        !in.getVarint(active) || !in.getVarint(rolledBack) ||
        !in.getVarint(simulated) || !in.getVarint(m.deadlineMisses) ||
        !in.getDouble(m.energyWastedJoules) ||
        !in.getDouble(m.schedulerOverheadSeconds) ||
        !in.getDouble(m.schedulerOverheadEnergy) ||
        !in.getDouble(m.telemetryOverheadSeconds) ||
        !in.getDouble(m.telemetryOverheadEnergy) ||
        !getRunningStats(in, m.jobServiceSeconds) ||
        !getRunningStats(in, m.predictionErrorSeconds))
        malformed("metrics");
    m.rechargeTicks = static_cast<Tick>(recharge);
    m.activeTicks = static_cast<Tick>(active);
    m.rolledBackTicks = static_cast<Tick>(rolledBack);
    m.simulatedTicks = static_cast<Tick>(simulated);

    util::Rng outcome(0);
    util::Rng jitter(0);
    std::uint64_t schedPos = 0;
    std::uint64_t capturePos = 0;
    double carry = 0.0;
    std::uint64_t inputId = 0;
    DeviceStats obsSnapshot;
    std::int64_t pendingUncharged = 0;
    if (!getRng(in, outcome) || !getRng(in, jitter) ||
        !in.getVarint(schedPos) || !in.getVarint(capturePos) ||
        !in.getDouble(carry) || !in.getVarint(inputId) ||
        !getDeviceStats(in, obsSnapshot) ||
        !in.getZigzag(pendingUncharged))
        malformed("simulator scalars");

    std::string systemBlob;
    std::string controllerBlob;
    std::uint8_t hasFaults = 0;
    std::string faultBlob;
    if (!in.getBytes(systemBlob) || !in.getBytes(controllerBlob) ||
        !in.getByte(hasFaults))
        malformed("component blobs");
    if ((hasFaults != 0) != (cfg.faults != nullptr))
        malformed("fault-runtime presence");
    if (hasFaults != 0 && !in.getBytes(faultBlob))
        malformed("fault blob");
    if (!in.atEnd())
        malformed("trailing bytes");

    // All bytes parsed — commit. Component loaders validate their own
    // blobs (structure and cross-checks against the rebuilt
    // configuration) before mutating anything.
    wire::Reader systemReader(systemBlob);
    if (!system.loadCheckpoint(systemReader) || !systemReader.atEnd())
        malformed("TaskSystem blob");
    wire::Reader controllerReader(controllerBlob);
    if (!controller.loadCheckpoint(controllerReader) ||
        !controllerReader.atEnd())
        malformed("Controller blob");
    if (cfg.faults != nullptr) {
        wire::Reader faultReader(faultBlob);
        if (!cfg.faults->loadCheckpoint(faultReader) ||
            !faultReader.atEnd())
            malformed("FaultInjector blob");
    }

    device.importCheckpoint(dev);
    buffer.importState(buf);
    metrics = m;
    outcomeRng = outcome;
    jitterRng = jitter;
    schedPowerCursor.restore(static_cast<std::size_t>(schedPos));
    captureCursor.restore(static_cast<std::size_t>(capturePos));
    overheadCarrySeconds = carry;
    nextInputId = inputId;
    obsDevice = obsSnapshot;

    // The resumed run's recorder starts fresh: shift the charged-event
    // watermark so the first segment's uncharged tail is billed on the
    // next scheduling round, exactly as the uninterrupted run would.
    telemetryChargedEvents = (cfg.observer != nullptr
        ? static_cast<std::int64_t>(cfg.observer->recordedCount())
        : 0) - pendingUncharged;

    // Re-derive the next save point from the restored capture count —
    // strictly ahead of it, so resuming at a boundary does not
    // immediately re-save the checkpoint it resumed from.
    nextCheckpointAtCaptures = cfg.checkpointEveryCaptures > 0
        ? (metrics.captures / cfg.checkpointEveryCaptures + 1) *
            cfg.checkpointEveryCaptures
        : 0;
}

std::uint64_t
experimentFingerprint(const ExperimentConfig &config)
{
    // Serialize every evolution-shaping knob into a canonical byte
    // string, then FNV-1a it. Derived and output-only fields
    // (obsSink, debugLog, shared traces) are deliberately absent —
    // callers own keeping those consistent with the parameters.
    std::string bytes;
    wire::putVarint(bytes, static_cast<std::uint64_t>(config.device));
    wire::putVarint(bytes,
                    static_cast<std::uint64_t>(config.environment));
    wire::putVarint(bytes, config.eventCount);
    wire::putFixed64(bytes, config.seed);
    wire::putZigzag(bytes, config.harvesterCells);
    wire::putVarint(bytes, static_cast<std::uint64_t>(config.controller));
    wire::putBytes(bytes, config.policyName);
    wire::putDouble(bytes, config.bufferThreshold);
    wire::putDouble(bytes, config.powerThresholdFraction);
    bytes.push_back(config.usePid ? '\1' : '\0');
    bytes.push_back(config.useCircuit ? '\1' : '\0');
    wire::putDouble(bytes, config.pid.kp);
    wire::putDouble(bytes, config.pid.ki);
    wire::putDouble(bytes, config.pid.kd);
    wire::putDouble(bytes, config.pid.derivativeTau);
    wire::putDouble(bytes, config.pid.outputMin);
    wire::putDouble(bytes, config.pid.outputMax);
    wire::putDouble(bytes, config.pid.integratorMin);
    wire::putDouble(bytes, config.pid.integratorMax);
    wire::putVarint(bytes,
                    static_cast<std::uint64_t>(config.sim.capturePeriod));
    wire::putVarint(bytes, config.sim.bufferCapacity);
    wire::putVarint(bytes,
                    static_cast<std::uint64_t>(config.sim.drainTicks));
    wire::putDouble(bytes, config.sim.executionJitterSigma);
    wire::putDouble(bytes, config.sim.telemetrySecondsPerEvent);
    wire::putDouble(bytes, config.sim.telemetryEnergyPerEvent);
    wire::putVarint(bytes, static_cast<std::uint64_t>(config.obsLevel));
    wire::putVarint(bytes, config.system.taskWindow);
    wire::putVarint(bytes, config.system.arrivalWindow);
    wire::putBytes(bytes, config.powerTraceCsv);
    wire::putVarint(bytes,
                    static_cast<std::uint64_t>(config.checkpointPolicy));
    wire::putVarint(
        bytes, static_cast<std::uint64_t>(config.checkpointIntervalTicks));
    wire::putFixed64(bytes, config.faults.seed);
    wire::putDouble(bytes, config.faults.measurement.biasWatts);
    wire::putDouble(bytes, config.faults.measurement.noiseSigma);
    bytes.push_back(static_cast<char>(config.faults.adc.stuckHighMask));
    bytes.push_back(static_cast<char>(config.faults.adc.stuckLowMask));
    bytes.push_back(static_cast<char>(config.faults.adc.flipMask));
    bytes.push_back(static_cast<char>(config.faults.adc.saturateMax));
    wire::putDouble(bytes, config.faults.powerTrace.dropoutsPerHour);
    wire::putDouble(bytes, config.faults.powerTrace.dropoutSeconds);
    wire::putDouble(bytes, config.faults.powerTrace.spikesPerHour);
    wire::putDouble(bytes, config.faults.powerTrace.spikeSeconds);
    wire::putDouble(bytes, config.faults.powerTrace.spikeFactor);
    wire::putDouble(bytes, config.faults.arrivals.burstsPerHour);
    wire::putDouble(bytes, config.faults.arrivals.burstSeconds);
    wire::putZigzag(bytes, config.faults.arrivals.captureJitterMs);
    wire::putDouble(bytes, config.faults.execution.overrunProbability);
    wire::putDouble(bytes, config.faults.execution.overrunFactor);
    wire::putDouble(bytes, config.faults.detectErrorSeconds);
    wire::putVarint(bytes, config.faults.mitigateStreak);

    // FNV-1a 64.
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
frameCheckpoint(const std::string &state, std::uint64_t fingerprint,
                Tick boundaryTick)
{
    std::string out;
    out.reserve(24 + state.size());
    out.append(kCheckpointMagic, sizeof kCheckpointMagic);
    out.push_back(static_cast<char>(kCheckpointMajor));
    out.push_back(static_cast<char>(kCheckpointMinor));
    out.push_back('\0');
    out.push_back('\0');
    wire::putFixed64(out, fingerprint);
    wire::putFixed64(out, static_cast<std::uint64_t>(boundaryTick));
    wire::putFixed32(out,
                     static_cast<std::uint32_t>(state.size()));
    wire::putFixed32(out, wire::crc32(state));
    out.append(state);
    return out;
}

bool
unframeCheckpoint(const std::string &bytes, CheckpointArchive &archive,
                  std::string &error)
{
    wire::Reader in(bytes);
    char magic[sizeof kCheckpointMagic] = {};
    for (char &c : magic) {
        std::uint8_t byte = 0;
        if (!in.getByte(byte)) {
            error = "truncated checkpoint header";
            return false;
        }
        c = static_cast<char>(byte);
    }
    if (magic[0] != kCheckpointMagic[0] ||
        magic[1] != kCheckpointMagic[1] ||
        magic[2] != kCheckpointMagic[2] ||
        magic[3] != kCheckpointMagic[3]) {
        error = "not a QZCK checkpoint (bad magic)";
        return false;
    }
    std::uint8_t major = 0;
    std::uint8_t minor = 0;
    std::uint8_t reserved0 = 0;
    std::uint8_t reserved1 = 0;
    if (!in.getByte(major) || !in.getByte(minor) ||
        !in.getByte(reserved0) || !in.getByte(reserved1)) {
        error = "truncated checkpoint header";
        return false;
    }
    if (major != kCheckpointMajor) {
        error = util::msg("unsupported checkpoint schema version ",
                          static_cast<int>(major), ".",
                          static_cast<int>(minor), " (reader supports ",
                          static_cast<int>(kCheckpointMajor), ".x)");
        return false;
    }
    std::uint64_t boundary = 0;
    std::uint32_t stateSize = 0;
    std::uint32_t crc = 0;
    if (!in.getFixed64(archive.fingerprint) || !in.getFixed64(boundary) ||
        !in.getFixed32(stateSize) || !in.getFixed32(crc)) {
        error = "truncated checkpoint header";
        return false;
    }
    archive.boundaryTick = static_cast<Tick>(boundary);
    if (in.remaining() != stateSize) {
        error = util::msg("truncated checkpoint state: header claims ",
                          stateSize, " bytes, file holds ",
                          in.remaining());
        return false;
    }
    archive.state.assign(bytes, bytes.size() - stateSize, stateSize);
    if (wire::crc32(archive.state) != crc) {
        error = "checkpoint state CRC mismatch (corrupt file)";
        return false;
    }
    return true;
}

void
writeCheckpointFile(const std::string &path, const std::string &state,
                    std::uint64_t fingerprint, Tick boundaryTick)
{
    const std::string framed =
        frameCheckpoint(state, fingerprint, boundaryTick);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        util::fatal(util::msg("cannot open checkpoint file for write: ",
                              path));
    out.write(framed.data(),
              static_cast<std::streamsize>(framed.size()));
    out.flush();
    if (!out)
        util::fatal(util::msg("checkpoint write failed: ", path));
}

CheckpointArchive
readCheckpointFile(const std::string &path,
                   std::uint64_t expectedFingerprint)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        util::fatal(util::msg("cannot open checkpoint file: ", path));
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (in.bad())
        util::fatal(util::msg("checkpoint read failed: ", path));
    CheckpointArchive archive;
    std::string error;
    if (!unframeCheckpoint(bytes, archive, error))
        util::fatal(util::msg(path, ": ", error));
    if (archive.fingerprint != expectedFingerprint) {
        util::fatal(util::msg(
            path, ": checkpoint belongs to a different experiment "
            "(fingerprint ", archive.fingerprint,
            ", resuming configuration has ", expectedFingerprint,
            "); resume requires the identical configuration"));
    }
    return archive;
}

namespace {

/** Little-endian fixed-width loads at a byte offset (no copy). */
std::uint64_t
loadFixed64(const std::string &bytes, std::size_t off)
{
    std::uint64_t value = 0;
    for (int i = 7; i >= 0; --i)
        value = (value << 8) |
            static_cast<unsigned char>(bytes[off + static_cast<std::size_t>(i)]);
    return value;
}

std::uint32_t
loadFixed32(const std::string &bytes, std::size_t off)
{
    std::uint32_t value = 0;
    for (int i = 3; i >= 0; --i)
        value = (value << 8) |
            static_cast<unsigned char>(bytes[off + static_cast<std::size_t>(i)]);
    return value;
}

/** QZCK record header size: magic + version + fingerprint + tick +
 *  size + CRC. */
constexpr std::size_t kCheckpointHeaderBytes = 32;

} // namespace

bool
scanCheckpointStream(const std::string &bytes, CheckpointScan &scan,
                     std::string &error)
{
    scan = CheckpointScan{};
    // The winning record's bounds — the state bytes are copied once,
    // after the whole stream has validated, not per record.
    std::size_t lastStateOff = 0;
    std::size_t lastStateSize = 0;

    std::size_t off = 0;
    while (off < bytes.size()) {
        const std::size_t avail = bytes.size() - off;

        // The magic is the first thing an append writes, so even a
        // torn tail starts with a (possibly truncated) "QZCK" prefix.
        // Any other byte sequence is corruption, torn tail or not.
        const std::size_t magicAvail =
            avail < sizeof kCheckpointMagic ? avail
                                            : sizeof kCheckpointMagic;
        for (std::size_t i = 0; i < magicAvail; ++i) {
            if (bytes[off + i] != kCheckpointMagic[i]) {
                error = util::msg(
                    "not a QZCK checkpoint record (bad magic at byte ",
                    off, ")");
                return false;
            }
        }

        if (avail < kCheckpointHeaderBytes) {
            // Header itself is torn. With a prior complete record the
            // append-only discipline explains it; alone it is just a
            // truncated file.
            if (scan.records > 0) {
                scan.tornTail = true;
                break;
            }
            error = "truncated checkpoint header";
            return false;
        }

        const std::uint8_t major =
            static_cast<std::uint8_t>(bytes[off + 4]);
        const std::uint8_t minor =
            static_cast<std::uint8_t>(bytes[off + 5]);
        if (major != kCheckpointMajor) {
            error = util::msg("unsupported checkpoint schema version ",
                              static_cast<int>(major), ".",
                              static_cast<int>(minor),
                              " (reader supports ",
                              static_cast<int>(kCheckpointMajor), ".x)");
            return false;
        }

        const std::uint64_t fingerprint = loadFixed64(bytes, off + 8);
        const std::uint64_t boundary = loadFixed64(bytes, off + 16);
        const std::uint32_t stateSize = loadFixed32(bytes, off + 24);
        const std::uint32_t crc = loadFixed32(bytes, off + 28);

        if (avail - kCheckpointHeaderBytes < stateSize) {
            // State payload is torn: same rule as a torn header.
            if (scan.records > 0) {
                scan.tornTail = true;
                break;
            }
            error = util::msg("truncated checkpoint state: header claims ",
                              stateSize, " bytes, file holds ",
                              avail - kCheckpointHeaderBytes);
            return false;
        }

        const std::size_t stateOff = off + kCheckpointHeaderBytes;
        if (wire::crc32(bytes.data() + stateOff, stateSize) != crc) {
            // A *complete* record never tears — a CRC mismatch here
            // means flipped bits, not a crash mid-append.
            error = "checkpoint state CRC mismatch (corrupt file)";
            return false;
        }

        scan.last.fingerprint = fingerprint;
        scan.last.boundaryTick = static_cast<Tick>(boundary);
        lastStateOff = stateOff;
        lastStateSize = stateSize;
        ++scan.records;
        off = stateOff + stateSize;
        scan.validBytes = off;
    }

    if (scan.records == 0) {
        error = "checkpoint stream holds no complete record";
        return false;
    }
    scan.last.state.assign(bytes, lastStateOff, lastStateSize);
    return true;
}

void
appendCheckpointFile(const std::string &path, const std::string &state,
                     std::uint64_t fingerprint, Tick boundaryTick)
{
    const std::string framed =
        frameCheckpoint(state, fingerprint, boundaryTick);
    std::ofstream out(path, std::ios::binary | std::ios::app);
    if (!out)
        util::fatal(util::msg("cannot open checkpoint file for append: ",
                              path));
    out.write(framed.data(),
              static_cast<std::streamsize>(framed.size()));
    out.flush();
    if (!out)
        util::fatal(util::msg("checkpoint append failed: ", path));
}

void
truncateCheckpointFile(const std::string &path, std::size_t bytes)
{
    std::error_code ec;
    std::filesystem::resize_file(path, bytes, ec);
    if (ec)
        util::fatal(util::msg("cannot truncate checkpoint file ", path,
                              ": ", ec.message()));
}

CheckpointScan
readCheckpointStream(const std::string &path,
                     std::uint64_t expectedFingerprint)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        util::fatal(util::msg("cannot open checkpoint file: ", path));
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (in.bad())
        util::fatal(util::msg("checkpoint read failed: ", path));
    CheckpointScan scan;
    std::string error;
    if (!scanCheckpointStream(bytes, scan, error))
        util::fatal(util::msg(path, ": ", error));
    if (scan.last.fingerprint != expectedFingerprint) {
        util::fatal(util::msg(
            path, ": checkpoint belongs to a different experiment "
            "(fingerprint ", scan.last.fingerprint,
            ", resuming configuration has ", expectedFingerprint,
            "); resume requires the identical configuration"));
    }
    return scan;
}

} // namespace sim
} // namespace quetzal
