/**
 * @file
 * Checkpoint records, streams and experiment fingerprinting
 * (DESIGN.md sections 16 and 17).
 *
 * A checkpoint *state blob* — produced by the Simulator's quiescent
 * capture-boundary hook via SimulationConfig::checkpointSink, or by
 * the fleet coordinator at a barrier — is a pure byte serialization
 * of the full run state. This file frames it into a self-describing
 * record:
 *
 *   record := magic "QZCK" | u8 major | u8 minor | u16 reserved
 *           | fixed64 fingerprint | fixed64 boundaryTick
 *           | fixed32 stateSize | fixed32 crc32(state) | state
 *
 * The fingerprint hashes every configuration knob that shapes the
 * run's evolution; readers refuse a record whose fingerprint does
 * not match the resuming configuration, turning "resumed the wrong
 * run" into a clean diagnostic instead of silent divergence.
 *
 * Every checkpoint file is a *stream*: the append-only concatenation
 * of records, one per checkpoint, for single runs and fleets alike.
 * Because writers only ever append whole records, a crash — even
 * SIGKILL mid-write — can only truncate the final record; scanning
 * therefore resolves to the last *complete*, CRC-valid record and
 * tolerates a torn tail when an earlier complete record exists ("the
 * prior record wins"). Anything else — a CRC mismatch on a complete
 * record, a non-QZCK byte sequence after a valid record, a lone torn
 * record — is corruption and is rejected with a named diagnostic.
 * readCheckpointStream and openCheckpointStream are the whole file
 * discipline.
 */

#ifndef QUETZAL_SIM_CHECKPOINT_HPP
#define QUETZAL_SIM_CHECKPOINT_HPP

#include <cstdint>
#include <functional>
#include <string>

#include "sim/experiment.hpp"
#include "util/types.hpp"

namespace quetzal {
namespace sim {

/** Record magic and schema version ("QZCK" v2.0). */
inline constexpr char kCheckpointMagic[4] = {'Q', 'Z', 'C', 'K'};
inline constexpr std::uint8_t kCheckpointMajor = 2;
inline constexpr std::uint8_t kCheckpointMinor = 0;

/** A parsed checkpoint record. */
struct CheckpointArchive
{
    std::uint64_t fingerprint = 0;
    Tick boundaryTick = 0; ///< capture boundary the state was taken at
    std::string state;     ///< the Simulator state blob
};

/**
 * Hash of every configuration knob that shapes the run's evolution
 * (FNV-1a 64). Two configs with equal fingerprints build the same
 * environment, device, controller and seeds, so a checkpoint from
 * one resumes under the other.
 */
std::uint64_t experimentFingerprint(const ExperimentConfig &config);

/** Frame a state blob into one record's bytes. */
std::string frameCheckpoint(const std::string &state,
                            std::uint64_t fingerprint,
                            Tick boundaryTick);

/**
 * Parse the bytes of exactly one record. Returns false with a
 * diagnostic in `error` on bad magic, an unsupported major version,
 * truncation or a CRC mismatch — never on a fingerprint difference
 * (callers compare archive.fingerprint themselves so they can name
 * both configs).
 */
bool unframeCheckpoint(const std::string &bytes,
                       CheckpointArchive &archive, std::string &error);

/** Outcome of scanning a multi-record checkpoint stream. */
struct CheckpointScan
{
    /** The last complete, CRC-valid record (the resume point). */
    CheckpointArchive last;
    /** Complete records found, in file order. */
    std::size_t records = 0;
    /** True when a truncated final record was dropped in favor of
     *  the prior barrier's complete record. */
    bool tornTail = false;
    /** Bytes up to the end of the last complete record. Appending
     *  to a torn stream must first truncate it to this offset, or
     *  the tail's garbage would corrupt the next scan. */
    std::size_t validBytes = 0;
};

/**
 * Scan the concatenation of QZCK records in `bytes`: the last
 * complete CRC-valid record wins. Returns false with a diagnostic in
 * `error` when no complete record exists (empty stream, lone torn
 * record) or on corruption (bad magic anywhere, unsupported major
 * version, CRC mismatch on a complete record). A truncated *final*
 * record after at least one complete record sets `scan.tornTail`
 * and succeeds — the append-only write discipline means truncation
 * is the only shape a crash can leave behind.
 */
bool scanCheckpointStream(const std::string &bytes, CheckpointScan &scan,
                          std::string &error);

/**
 * Read and scan a checkpoint stream file; util::fatal (naming the
 * file) on I/O failure, corruption or a fingerprint mismatch of the
 * resume record against `expectedFingerprint`.
 */
CheckpointScan readCheckpointStream(const std::string &path,
                                    std::uint64_t expectedFingerprint);

/** A run's checkpoint sink: appends one framed record per call. */
using CheckpointAppend =
    std::function<void(const std::string &state, Tick boundaryTick)>;

/**
 * Ready the stream at `path` for a run's checkpoints and return the
 * sink that appends them (util::fatal on I/O failure). A fresh
 * stream is truncated once. The stream the run resumed from (`path`
 * equal to `resumePath`, `resumed` its scan) is cut back to
 * `resumed.validBytes` instead, which drops a torn tail: the resumed
 * run's appends then leave the bytes a straight run would have.
 */
CheckpointAppend openCheckpointStream(const std::string &path,
                                      std::uint64_t fingerprint,
                                      const std::string &resumePath = {},
                                      const CheckpointScan &resumed = {});

} // namespace sim
} // namespace quetzal

#endif // QUETZAL_SIM_CHECKPOINT_HPP
