/**
 * @file
 * Checkpoint/restore of full simulator state (DESIGN.md sections 16
 * and 17): the Simulator's quiescent-boundary save/restore hooks, the
 * experiment fingerprint, the QZCK record framing and the stream
 * file discipline every checkpoint file follows.
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
Simulator::walkCheckpoint(wire::Archive &ar, Tick &now,
                          Tick &nominalCapture, Tick &nextCapture)
{
    ar.section("loop clocks");
    ar.varint(now);
    ar.varint(nominalCapture);
    ar.varint(nextCapture);

    ar.section("device state");
    Device::State dev = device.exportState();
    dev.walk(ar);

    // Input buffer (exportState panics on in-flight records — the
    // quiescence assertion). Its walk names its own sections.
    queueing::InputBuffer::State buf = buffer.exportState();
    buf.walk(ar);
    ar.section("buffer record count exceeds capacity");
    ar.check(buf.records.size() <= buffer.capacity());
    ar.section("buffer record job");
    for (const queueing::InputRecord &rec : buf.records)
        ar.check(rec.jobId < system.jobs().size());

    ar.section("metrics");
    Metrics m = metrics;
    m.walk(ar);

    // Simulator-owned RNG streams and trace cursors.
    ar.section("simulator scalars");
    util::Rng::State outcome = outcomeRng.exportState();
    util::Rng::State jitter = jitterRng.exportState();
    std::size_t schedPos = schedPowerCursor.position();
    std::size_t capturePos = captureCursor.position();
    double carry = overheadCarrySeconds;
    std::uint64_t inputId = nextInputId;
    DeviceStats obsSnapshot = obsDevice;
    outcome.walk(ar);
    jitter.walk(ar);
    ar.varint(schedPos);
    ar.varint(capturePos);
    ar.real(carry);
    ar.varint(inputId);
    obsSnapshot.walk(ar);

    // Telemetry self-cost tail: recorder events stored but not yet
    // charged. The resumed run starts a fresh recorder at zero, so it
    // carries the tail as a negative charged-count offset.
    const std::int64_t recorded = cfg.observer != nullptr
        ? static_cast<std::int64_t>(cfg.observer->recordedCount())
        : 0;
    std::int64_t pendingUncharged =
        cfg.observer != nullptr ? recorded - telemetryChargedEvents : 0;
    ar.zigzag(pendingUncharged);

    // The next capture stores the next input id at a tick no earlier
    // than nextCapture: the buffer's push history must lie behind
    // both, or that push would panic mid-run.
    ar.section("buffer record id past next input id");
    ar.check(!buf.anyPush || buf.maxPushedId < inputId);
    ar.section("buffer record capture after next capture");
    ar.check(!buf.anyPush || buf.lastPushCaptureTick <= nextCapture);

    // Length-prefixed component blobs. Each component validates its
    // blob against the rebuilt configuration and applies it only once
    // the whole blob parsed.
    ar.section("TaskSystem blob");
    ar.nested([this](wire::Archive &sub) { system.checkpoint(sub); });
    ar.section("Controller blob");
    ar.nested([this](wire::Archive &sub) {
        controller.checkpoint(system, sub);
    });
    ar.section("fault-runtime presence");
    bool hasFaults = cfg.faults != nullptr;
    ar.flag(hasFaults);
    ar.check(hasFaults == (cfg.faults != nullptr));
    if (cfg.faults != nullptr) {
        ar.section("FaultInjector blob");
        ar.nested(
            [this](wire::Archive &sub) { cfg.faults->checkpoint(sub); });
    }
    if (ar.saving())
        return;

    ar.section("trailing bytes");
    ar.check(ar.atEnd());
    if (!ar.ok())
        malformed(ar.failure());
    device.importState(dev);
    buffer.importState(buf);
    metrics = m;
    outcomeRng.importState(outcome);
    jitterRng.importState(jitter);
    schedPowerCursor.restore(schedPos);
    captureCursor.restore(capturePos);
    overheadCarrySeconds = carry;
    nextInputId = inputId;
    obsDevice = obsSnapshot;
    // The resumed run's recorder starts fresh: shift the charged-event
    // watermark so the first segment's uncharged tail is billed on the
    // next scheduling round, exactly as the uninterrupted run would.
    telemetryChargedEvents = recorded - pendingUncharged;
}

void
Simulator::saveCheckpoint(Tick now, Tick nominalCapture, Tick nextCapture)
{
    std::string out;
    out.reserve(1024);
    wire::Archive ar(out);
    walkCheckpoint(ar, now, nominalCapture, nextCapture);

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
    wire::Archive ar{wire::Reader(*cfg.resumeState)};
    walkCheckpoint(ar, now, nominalCapture, nextCapture);

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
    // (obsSink, shared traces) are deliberately absent —
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

    return wire::fnv1a64(bytes);
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

namespace {

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

        // The whole header is present, so none of these reads can
        // fail: version, two reserved bytes, fingerprint, boundary
        // tick, state size and state CRC.
        wire::Reader header(bytes.data() + off + sizeof kCheckpointMagic,
                            kCheckpointHeaderBytes -
                                sizeof kCheckpointMagic);
        std::uint8_t major = 0;
        std::uint8_t minor = 0;
        std::uint8_t reserved = 0;
        std::uint64_t fingerprint = 0;
        std::uint64_t boundary = 0;
        std::uint32_t stateSize = 0;
        std::uint32_t crc = 0;
        (void)(header.getByte(major) && header.getByte(minor) &&
               header.getByte(reserved) && header.getByte(reserved) &&
               header.getFixed64(fingerprint) &&
               header.getFixed64(boundary) &&
               header.getFixed32(stateSize) && header.getFixed32(crc));
        if (major != kCheckpointMajor) {
            error = util::msg("unsupported checkpoint schema version ",
                              static_cast<int>(major), ".",
                              static_cast<int>(minor),
                              " (reader supports ",
                              static_cast<int>(kCheckpointMajor), ".x)");
            return false;
        }

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

bool
unframeCheckpoint(const std::string &bytes, CheckpointArchive &archive,
                  std::string &error)
{
    CheckpointScan scan;
    if (!scanCheckpointStream(bytes, scan, error))
        return false;
    if (scan.records != 1 || scan.tornTail) {
        error = "trailing bytes after the checkpoint record (an "
                "archive holds exactly one)";
        return false;
    }
    archive = std::move(scan.last);
    return true;
}

CheckpointScan
readCheckpointStream(const std::string &path,
                     std::uint64_t expectedFingerprint)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        util::fatal(util::msg("cannot open checkpoint file: ", path));
    const std::string bytes((std::istreambuf_iterator<char>(in)),
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

CheckpointAppend
openCheckpointStream(const std::string &path, std::uint64_t fingerprint,
                     const std::string &resumePath,
                     const CheckpointScan &resumed)
{
    if (!resumePath.empty() && path == resumePath) {
        std::error_code ec;
        std::filesystem::resize_file(path, resumed.validBytes, ec);
        if (ec)
            util::fatal(util::msg("cannot truncate checkpoint file ",
                                  path, ": ", ec.message()));
    } else if (!std::ofstream(path, std::ios::binary | std::ios::trunc)) {
        util::fatal(util::msg("cannot open checkpoint file for write: ",
                              path));
    }
    return [path, fingerprint](const std::string &state, Tick tick) {
        const std::string framed =
            frameCheckpoint(state, fingerprint, tick);
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out.write(framed.data(),
                  static_cast<std::streamsize>(framed.size()));
        out.flush();
        if (!out)
            util::fatal(util::msg("checkpoint append failed: ", path));
    };
}

} // namespace sim
} // namespace quetzal
