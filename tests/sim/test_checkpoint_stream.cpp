/**
 * @file
 * QZCK stream files (DESIGN.md sections 16 and 17): the append-only
 * discipline single runs and fleets share — a fresh stream truncated
 * once, one record appended per checkpoint, the last complete record
 * read back, a torn tail cut before a resumed run appends — and a
 * resume routed through a stream on disk, the file-level paths the
 * in-memory resume suite (test_checkpoint_resume.cpp) never touches.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_io.hpp"
#include "obs/trace_sink.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"

namespace quetzal {
namespace sim {
namespace {

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "quetzal_stream_" + name + ".qzck";
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CheckpointStreamFile, OpenTruncatesAFreshStreamOnce)
{
    const std::string path = tempPath("fresh");
    writeBytes(path, "an older run's stream");
    const CheckpointAppend append = openCheckpointStream(path, 0xf00d);
    EXPECT_EQ(fileBytes(path), "");

    append("the state blob", 4200);
    append("a later state", 8400);
    const CheckpointScan scan = readCheckpointStream(path, 0xf00d);
    EXPECT_EQ(scan.records, 2u);
    EXPECT_EQ(scan.last.fingerprint, 0xf00dull);
    EXPECT_EQ(scan.last.boundaryTick, 8400);
    EXPECT_EQ(scan.last.state, "a later state");
    std::remove(path.c_str());
}

TEST(CheckpointStreamFile, AppendBuildsAScannableStream)
{
    const std::string path = tempPath("append");
    const CheckpointAppend append = openCheckpointStream(path, 0xcafe);
    append("one", 600);
    append("two", 1200);
    append("three", 1800);

    const CheckpointScan scan = readCheckpointStream(path, 0xcafe);
    EXPECT_EQ(scan.records, 3u);
    EXPECT_FALSE(scan.tornTail);
    EXPECT_EQ(scan.last.boundaryTick, 1800);
    EXPECT_EQ(scan.last.state, "three");
    EXPECT_EQ(scan.validBytes, fileBytes(path).size());

    // The stream is the concatenation of the individual frames.
    EXPECT_EQ(fileBytes(path),
              frameCheckpoint("one", 0xcafe, 600) +
                  frameCheckpoint("two", 0xcafe, 1200) +
                  frameCheckpoint("three", 0xcafe, 1800));
    std::remove(path.c_str());
}

TEST(CheckpointStreamFile, ResumeOpenCutsATornTailBeforeAppending)
{
    const std::string path = tempPath("repair");
    const std::string clean = frameCheckpoint("one", 0xcafe, 600) +
                              frameCheckpoint("two", 0xcafe, 1200);

    // Tear a third record in half, as a killed writer would.
    const std::string torn = frameCheckpoint("three", 0xcafe, 1800);
    writeBytes(path, clean + torn.substr(0, torn.size() / 2));

    const CheckpointScan scan = readCheckpointStream(path, 0xcafe);
    EXPECT_EQ(scan.records, 2u);
    EXPECT_TRUE(scan.tornTail);
    EXPECT_EQ(scan.last.boundaryTick, 1200);
    EXPECT_EQ(scan.validBytes, clean.size());

    // Resuming onto the same stream cuts it to validBytes; appending
    // the re-simulated record leaves the straight stream.
    const CheckpointAppend append =
        openCheckpointStream(path, 0xcafe, path, scan);
    EXPECT_EQ(fileBytes(path), clean);
    append("three", 1800);
    EXPECT_EQ(fileBytes(path), clean + torn);
    std::remove(path.c_str());
}

TEST(CheckpointStreamFile, ResumeOpenOfAnotherPathLeavesTheSourceAlone)
{
    const std::string source = tempPath("source");
    const std::string target = tempPath("target");
    const std::string stream = frameCheckpoint("one", 0xcafe, 600);
    const std::string torn = stream + stream.substr(0, 10);
    writeBytes(source, torn);
    writeBytes(target, "stale");

    const CheckpointScan scan = readCheckpointStream(source, 0xcafe);
    ASSERT_TRUE(scan.tornTail);
    (void)openCheckpointStream(target, 0xcafe, source, scan);
    EXPECT_EQ(fileBytes(source), torn);
    EXPECT_EQ(fileBytes(target), "");
    std::remove(source.c_str());
    std::remove(target.c_str());
}

TEST(CheckpointStreamFile, ScanToleratesATornTailOnlyAfterARecord)
{
    // File-level parity with the in-memory sweep: a lone torn record
    // is fatal (there is nothing to fall back to), a torn tail after
    // a complete record is not.
    const std::string path = tempPath("tolerance");
    const std::string framed = frameCheckpoint("state", 0xcafe, 600);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(framed.data(),
              static_cast<std::streamsize>(framed.size()));
    out.write(framed.data(), 10); // torn duplicate: header prefix
    out.close();

    const CheckpointScan scan = readCheckpointStream(path, 0xcafe);
    EXPECT_EQ(scan.records, 1u);
    EXPECT_TRUE(scan.tornTail);
    EXPECT_EQ(scan.validBytes, framed.size());
    std::remove(path.c_str());
}

TEST(CheckpointStreamScan, ReadsEveryHeaderFieldAtFullWidth)
{
    // Every byte of the fixed-width fingerprint and tick reaches the
    // scan, in little-endian order, for each record of the stream.
    const std::uint64_t fp = 0x0123456789abcdefull;
    const Tick first = 0x1122334455667788ll;
    const Tick second = 0x7edcba9876543210ll;
    const std::string stream = frameCheckpoint("a", fp, first) +
                               frameCheckpoint("bcd", fp, second);
    EXPECT_EQ(stream.substr(8, 8), "\xef\xcd\xab\x89\x67\x45\x23\x01");

    CheckpointScan scan;
    std::string error;
    ASSERT_TRUE(scanCheckpointStream(stream.substr(0, 33), scan, error))
        << error;
    EXPECT_EQ(scan.last.fingerprint, fp);
    EXPECT_EQ(scan.last.boundaryTick, first);
    EXPECT_EQ(scan.last.state, "a");

    ASSERT_TRUE(scanCheckpointStream(stream, scan, error)) << error;
    EXPECT_EQ(scan.records, 2u);
    EXPECT_EQ(scan.last.fingerprint, fp);
    EXPECT_EQ(scan.last.boundaryTick, second);
    EXPECT_EQ(scan.last.state, "bcd");
    EXPECT_EQ(scan.validBytes, stream.size());
}

TEST(CheckpointStreamScan, RejectsALoneHeaderTornAtAnyByte)
{
    // With no complete record before it, a header cut anywhere inside
    // its 32 bytes is a truncated file, not a torn tail.
    const std::string framed = frameCheckpoint("state", 0xcafe, 600);
    for (std::size_t keep = 1; keep < 32; ++keep) {
        CheckpointScan scan;
        std::string error;
        EXPECT_FALSE(
            scanCheckpointStream(framed.substr(0, keep), scan, error))
            << keep << " bytes";
        EXPECT_EQ(error, "truncated checkpoint header") << keep << " bytes";
    }
}

using CheckpointStreamFileDeathTest = ::testing::Test;

TEST(CheckpointStreamFileDeathTest, ReadDiesOnMissingOrEmptyStream)
{
    EXPECT_EXIT((void)readCheckpointStream(tempPath("absent"), 1),
                ::testing::ExitedWithCode(1),
                "cannot open checkpoint file");

    const std::string path = tempPath("empty");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.close();
    EXPECT_EXIT((void)readCheckpointStream(path, 1),
                ::testing::ExitedWithCode(1), "no complete record");
    std::remove(path.c_str());
}

TEST(CheckpointStreamFileDeathTest, ReadDiesOnAForeignFingerprint)
{
    const std::string path = tempPath("foreign");
    openCheckpointStream(path, 0x1234)("state", 600);
    EXPECT_EXIT((void)readCheckpointStream(path, 0x4321),
                ::testing::ExitedWithCode(1),
                "belongs to a different experiment");
    std::remove(path.c_str());
}

TEST(CheckpointStreamFileDeathTest, ReadDiesOnACorruptOrOlderRecord)
{
    const std::string path = tempPath("corrupt");
    std::string corrupt = frameCheckpoint("payload", 0xaaaa, 100);
    corrupt.back() = static_cast<char>(corrupt.back() ^ 0x01);
    writeBytes(path, corrupt);
    EXPECT_EXIT((void)readCheckpointStream(path, 0xaaaa),
                ::testing::ExitedWithCode(1), "CRC mismatch");

    // A QZCK 1.x record predates the 2.0 state layout.
    std::string older = frameCheckpoint("payload", 0xaaaa, 100);
    older[4] = '\x01';
    writeBytes(path, older);
    EXPECT_EXIT((void)readCheckpointStream(path, 0xaaaa),
                ::testing::ExitedWithCode(1),
                "unsupported checkpoint schema version 1.0");
    std::remove(path.c_str());
}

// --- Resume through a stream on disk ------------------------------------

ExperimentConfig
resumableConfig()
{
    ExperimentConfig config;
    config.eventCount = 120;
    config.seed = 42;
    config.sim.drainTicks = 60 * kTicksPerSecond;
    config.obsLevel = obs::ObsLevel::Full;
    return config;
}

TEST(CheckpointStreamFile, ResumeThroughAStreamFile)
{
    // Save through a stream, read its last record back under the
    // same configuration's fingerprint, and finish the run: the full
    // disk round trip of the resume path.
    const std::string path = tempPath("stream_resume");
    obs::VectorSink straightSink;
    ExperimentConfig straightCfg = resumableConfig();
    straightCfg.obsSink = &straightSink;
    const Metrics straight = runExperiment(straightCfg);

    ExperimentConfig saveCfg = resumableConfig();
    saveCfg.sim.checkpointEveryCaptures = 40;
    saveCfg.sim.checkpointStop = true;
    saveCfg.sim.checkpointSink =
        openCheckpointStream(path, experimentFingerprint(saveCfg));
    (void)runExperiment(saveCfg);

    ExperimentConfig resumeCfg = resumableConfig();
    const CheckpointArchive archive =
        readCheckpointStream(path, experimentFingerprint(resumeCfg)).last;
    obs::VectorSink resumedSink;
    resumeCfg.obsSink = &resumedSink;
    resumeCfg.sim.resumeState = &archive.state;
    const Metrics resumed = runExperiment(resumeCfg);

    EXPECT_EQ(straight.jobsCompleted, resumed.jobsCompleted);
    EXPECT_EQ(straight.powerFailures, resumed.powerFailures);
    EXPECT_EQ(straight.simulatedTicks, resumed.simulatedTicks);
    EXPECT_EQ(straight.storedInputs, resumed.storedInputs);

    // The resumed event stream is the straight run's suffix from the
    // archive's boundary tick on.
    std::vector<obs::Event> suffix;
    for (const obs::Event &event : straightSink.events()) {
        if (event.tick >= archive.boundaryTick)
            suffix.push_back(event);
    }
    std::ostringstream expected;
    std::ostringstream actual;
    obs::writeJsonl(expected, suffix, 0);
    obs::writeJsonl(actual, resumedSink.events(), 0);
    EXPECT_EQ(expected.str(), actual.str());
    std::remove(path.c_str());
}

} // namespace
} // namespace sim
} // namespace quetzal
