/**
 * @file
 * Checkpoint-format property tests.
 *
 * Two properties carry the whole recovery design: (1) save→load is
 * the identity on a parameter store — including mid-run, including
 * across GPU counts (the checkpointed state at a drain barrier is a
 * pure function of the completed count under CSP); (2) no corrupted
 * or truncated input ever crashes the process — every damaged byte
 * surfaces as a clean `false` from load.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "exec/parallel_runtime.h"
#include "runtime/pipeline_runtime.h"
#include "supernet/search_space.h"
#include "train/param_store.h"
#include "train/run_checkpoint.h"

namespace naspipe {
namespace {

/** A store with a few deterministic training writes applied. */
void
scribble(ParameterStore &store)
{
    store.write(LayerId{1, 2}, 0).weight[3] = 0.123f;
    store.write(LayerId{0, 0}, 1).bias[7] = -4.5f;
    store.write(LayerId{1, 2}, 2).weight[0] += 1.0f;
    store.read(LayerId{2, 1}, 3);
}

std::string
serialized(ParameterStore &store)
{
    std::stringstream buffer;
    EXPECT_TRUE(store.save(buffer));
    return buffer.str();
}

TEST(CheckpointProperties, StoreSaveLoadHashIdentity)
{
    SearchSpace space = makeTinySpace();
    ParameterStore store(space, 7);
    scribble(store);

    std::stringstream buffer(serialized(store));
    ParameterStore restored(space, 7);
    ASSERT_TRUE(restored.load(buffer));
    EXPECT_EQ(store.supernetHash(), restored.supernetHash());
    EXPECT_EQ(store.touchedHash(), restored.touchedHash());
}

TEST(CheckpointProperties, StoreLoadPreservesVersions)
{
    SearchSpace space = makeTinySpace();
    ParameterStore store(space, 7);
    scribble(store);
    ASSERT_EQ(store.version(LayerId{1, 2}), 2u);

    std::stringstream buffer(serialized(store));
    ParameterStore restored(space, 7);
    ASSERT_TRUE(restored.load(buffer));
    EXPECT_EQ(restored.version(LayerId{1, 2}), 2u);
    EXPECT_EQ(restored.version(LayerId{0, 0}), 1u);
    EXPECT_EQ(restored.version(LayerId{2, 1}), 0u);
}

TEST(CheckpointProperties, MidRunStoreHashIdenticalAcrossGpuCounts)
{
    // Train the same configuration on 2 and 4 GPUs, checkpointing at
    // the same drain boundary. Under CSP the mid-run store state is a
    // pure function of the completed count, so the two checkpoints'
    // stores must hash identically after a round trip.
    SearchSpace space("ckpt-prop", SpaceFamily::Nlp, 12, 4, 5);
    std::uint64_t hashes[2] = {0, 0};
    int slot = 0;
    for (int gpus : {2, 4}) {
        std::string path = ::testing::TempDir() +
                           "naspipe_ckpt_prop_" +
                           std::to_string(gpus) + ".ckpt";
        RuntimeConfig config;
        config.system = naspipeSystem();
        config.numStages = gpus;
        config.totalSubnets = 18;
        config.seed = 7;
        config.batch = 16;
        config.ckptInterval = 8;
        config.ckptPath = path;
        RunResult result = runTraining(space, config);
        ASSERT_FALSE(result.oom);
        ASSERT_FALSE(result.failed) << result.error;

        RunCheckpoint ckpt;
        ASSERT_TRUE(ckpt.loadFile(path));
        EXPECT_EQ(ckpt.completed, 16u) << gpus << " GPUs";

        std::istringstream storeBytes(ckpt.storeBytes);
        ParameterStore restored(space, 7);
        ASSERT_TRUE(restored.load(storeBytes));
        hashes[slot++] = restored.supernetHash();
        std::remove(path.c_str());
    }
    EXPECT_EQ(hashes[0], hashes[1]);
}

TEST(CheckpointProperties, EveryStoreByteFlipIsRejectedCleanly)
{
    // Flip one byte at a sweep of positions covering the header and
    // the payload: load must return false every time — never abort,
    // never silently accept.
    SearchSpace space = makeTinySpace();
    ParameterStore store(space, 7);
    scribble(store);
    std::string bytes = serialized(store);
    ASSERT_GT(bytes.size(), 64u);

    for (std::size_t pos = 0; pos < bytes.size();
         pos += (pos < 64 ? 1 : 37)) {
        std::string damaged = bytes;
        damaged[pos] ^= 0x01;
        std::stringstream buffer(damaged);
        ParameterStore restored(space, 7);
        EXPECT_FALSE(restored.load(buffer))
            << "byte flip at " << pos << " accepted";
    }
}

TEST(CheckpointProperties, EveryStoreTruncationIsRejectedCleanly)
{
    SearchSpace space = makeTinySpace();
    ParameterStore store(space, 7);
    scribble(store);
    std::string bytes = serialized(store);

    for (std::size_t len = 0; len < bytes.size();
         len += (len < 64 ? 1 : 53)) {
        std::stringstream buffer(bytes.substr(0, len));
        ParameterStore restored(space, 7);
        EXPECT_FALSE(restored.load(buffer))
            << "truncation to " << len << " bytes accepted";
    }
}

TEST(CheckpointProperties, StoreMismatchReturnsFalseNotFatal)
{
    SearchSpace space = makeTinySpace();
    ParameterStore store(space, 7);
    std::string bytes = serialized(store);

    // Wrong seed.
    {
        std::stringstream buffer(bytes);
        ParameterStore otherSeed(space, 8);
        EXPECT_FALSE(otherSeed.load(buffer));
    }
    // Wrong space shape.
    {
        SearchSpace bigger("other", SpaceFamily::Nlp, 6, 3, 5);
        std::stringstream buffer(bytes);
        ParameterStore otherShape(bigger, 7);
        EXPECT_FALSE(otherShape.load(buffer));
    }
}

TEST(CheckpointProperties, RunCheckpointRoundTrip)
{
    RunCheckpoint ckpt;
    ckpt.seed = 42;
    ckpt.spaceBlocks = 12;
    ckpt.spaceChoices = 4;
    ckpt.totalSubnets = 64;
    ckpt.completed = 3;
    ckpt.simSeconds = 12.5;
    ckpt.busySeconds = 40.25;
    ckpt.checkpointsWritten = 2;
    ckpt.losses = {0.5, 0.4, 0.3};
    ckpt.completionSec = {1.0, 2.0, 3.0};
    ckpt.storeBytes = "store-payload-stand-in";
    ckpt.accessLogBytes = std::string("log\0bytes", 9);

    std::stringstream buffer;
    ASSERT_TRUE(ckpt.save(buffer));

    RunCheckpoint loaded;
    ASSERT_TRUE(loaded.load(buffer));
    EXPECT_EQ(loaded.seed, 42u);
    EXPECT_EQ(loaded.spaceBlocks, 12u);
    EXPECT_EQ(loaded.spaceChoices, 4u);
    EXPECT_EQ(loaded.totalSubnets, 64u);
    EXPECT_EQ(loaded.completed, 3u);
    EXPECT_EQ(loaded.simSeconds, 12.5);
    EXPECT_EQ(loaded.busySeconds, 40.25);
    EXPECT_EQ(loaded.checkpointsWritten, 2u);
    EXPECT_EQ(loaded.losses, ckpt.losses);
    EXPECT_EQ(loaded.completionSec, ckpt.completionSec);
    EXPECT_EQ(loaded.storeBytes, ckpt.storeBytes);
    EXPECT_EQ(loaded.accessLogBytes, ckpt.accessLogBytes);
}

TEST(CheckpointProperties, RunCheckpointCorruptionRejected)
{
    RunCheckpoint ckpt;
    ckpt.seed = 42;
    ckpt.spaceBlocks = 12;
    ckpt.spaceChoices = 4;
    ckpt.totalSubnets = 64;
    ckpt.completed = 2;
    ckpt.losses = {0.5, 0.4};
    ckpt.completionSec = {1.0, 2.0};
    ckpt.storeBytes = "store";
    std::stringstream buffer;
    ASSERT_TRUE(ckpt.save(buffer));
    std::string bytes = buffer.str();

    for (std::size_t pos = 0; pos < bytes.size();
         pos += (pos < 32 ? 1 : 11)) {
        std::string damaged = bytes;
        damaged[pos] ^= 0x80;
        std::stringstream in(damaged);
        RunCheckpoint loaded;
        EXPECT_FALSE(loaded.load(in))
            << "byte flip at " << pos << " accepted";
    }
    for (std::size_t len = 0; len < bytes.size(); len += 9) {
        std::stringstream in(bytes.substr(0, len));
        RunCheckpoint loaded;
        EXPECT_FALSE(loaded.load(in))
            << "truncation to " << len << " bytes accepted";
    }
}

TEST(CheckpointProperties, RunCheckpointRejectsInconsistentCounts)
{
    // losses/completionSec must both have exactly `completed`
    // entries; a checkpoint violating that is structurally invalid
    // even when its checksum verifies.
    RunCheckpoint ckpt;
    ckpt.totalSubnets = 8;
    ckpt.completed = 3;
    ckpt.losses = {0.5, 0.4};  // too short
    ckpt.completionSec = {1.0, 2.0, 3.0};
    std::stringstream buffer;
    ASSERT_TRUE(ckpt.save(buffer));
    RunCheckpoint loaded;
    EXPECT_FALSE(loaded.load(buffer));
}

TEST(CheckpointProperties, AccessLogRoundTrip)
{
    AccessLog log(4, 2, /*keepHistory=*/true);
    log.record(LayerId{0, 1}, 2, AccessKind::Read);
    log.record(LayerId{0, 1}, 2, AccessKind::Write);
    log.record(LayerId{3, 0}, 5, AccessKind::Read);
    std::stringstream buffer;
    log.saveTo(buffer);

    AccessLog loaded(4, 2, /*keepHistory=*/true);
    ASSERT_TRUE(loaded.loadFrom(buffer));
    EXPECT_EQ(loaded.totalRecords(), log.totalRecords());
    EXPECT_EQ(loaded.renderOrder(LayerId{0, 1}),
              log.renderOrder(LayerId{0, 1}));
    EXPECT_EQ(loaded.renderOrder(LayerId{3, 0}),
              log.renderOrder(LayerId{3, 0}));

    // Appending after a reload continues the global order where the
    // original left off.
    loaded.record(LayerId{3, 0}, 6, AccessKind::Write);
    EXPECT_EQ(loaded.totalRecords(), log.totalRecords() + 1);
}

/** A 4x2 log with one clean layer, one open read, one violation. */
void
scribble(AccessLog &log)
{
    log.record(LayerId{0, 1}, 2, AccessKind::Read);
    log.record(LayerId{0, 1}, 2, AccessKind::Write);
    log.record(LayerId{3, 0}, 5, AccessKind::Read);
    log.record(LayerId{1, 1}, 4, AccessKind::Write);
}

TEST(CheckpointProperties, AccessLogCursorsRoundTripWithoutHistory)
{
    AccessLog log(4, 2);
    scribble(log);
    std::stringstream buffer;
    log.saveTo(buffer);
    // Counter, shape, flags and one 24-byte cursor per layer: the
    // section's size depends on the space only.
    EXPECT_EQ(buffer.str().size(), 3 * 8 + 8 * 24u);

    AccessLog loaded(4, 2);
    ASSERT_TRUE(loaded.loadFrom(buffer));
    EXPECT_EQ(loaded.totalRecords(), 4u);
    EXPECT_EQ(loaded.touchedLayers(), log.touchedLayers());
    EXPECT_EQ(loaded.violatedLayers(), 2);
    EXPECT_TRUE(loaded.sequentiallyEquivalent(LayerId{0, 1}));
    // The open read stays open: its write still closes the pair.
    loaded.record(LayerId{3, 0}, 5, AccessKind::Write);
    EXPECT_TRUE(loaded.sequentiallyEquivalent(LayerId{3, 0}));
    EXPECT_EQ(loaded.violatedLayers(), 1);
}

TEST(CheckpointProperties, AccessLogHistoryOptInMustMatch)
{
    AccessLog plain(4, 2);
    scribble(plain);
    std::stringstream noHistory;
    plain.saveTo(noHistory);
    // A log that keeps history refuses a stream without one...
    AccessLog keeper(4, 2, /*keepHistory=*/true);
    EXPECT_FALSE(keeper.loadFrom(noHistory));
    EXPECT_EQ(keeper.totalRecords(), 0u);

    // ...while a log without history takes the cursors of one that
    // has it.
    AccessLog full(4, 2, /*keepHistory=*/true);
    scribble(full);
    std::stringstream withHistory;
    full.saveTo(withHistory);
    AccessLog cursorsOnly(4, 2);
    ASSERT_TRUE(cursorsOnly.loadFrom(withHistory));
    EXPECT_EQ(cursorsOnly.violatedLayers(), full.violatedLayers());
    EXPECT_EQ(cursorsOnly.totalRecords(), full.totalRecords());

    // A stream saved for another space shape is refused.
    std::stringstream again(noHistory.str());
    AccessLog otherShape(2, 4);
    EXPECT_FALSE(otherShape.loadFrom(again));
}

TEST(CheckpointProperties, AccessLogRejectsDamagedStream)
{
    for (bool history : {true, false}) {
        SCOPED_TRACE(history ? "with history" : "cursors only");
        AccessLog log(4, 2, history);
        log.record(LayerId{0, 1}, 2, AccessKind::Read);
        log.record(LayerId{1, 0}, 3, AccessKind::Write);
        std::stringstream buffer;
        log.saveTo(buffer);
        std::string bytes = buffer.str();

        for (std::size_t len = 0; len < bytes.size(); len += 5) {
            std::stringstream in(bytes.substr(0, len));
            AccessLog loaded(4, 2, history);
            EXPECT_FALSE(loaded.loadFrom(in))
                << "truncation to " << len << " accepted";
            EXPECT_EQ(loaded.totalRecords(), 0u);
        }

        // The cursor section: layer (0,1) is slot 1, its state word
        // the third of the cursor. Undefined state bits are refused;
        // with history, so is a cursor the history does not replay
        // to (the open read of (0,1) flipped to closed).
        const std::size_t state = 3 * 8 + 1 * 24 + 16;
        for (char flip : {'\x40', '\x02'}) {
            std::string damaged = bytes;
            damaged[state] = static_cast<char>(damaged[state] ^ flip);
            std::stringstream in(damaged);
            AccessLog loaded(4, 2, history);
            bool accepted = loaded.loadFrom(in);
            if (flip == '\x40' || history) {
                EXPECT_FALSE(accepted)
                    << "state flip " << int(flip) << " accepted";
                EXPECT_EQ(loaded.totalRecords(), 0u);
            }
        }
    }
}

TEST(CheckpointProperties, CheckpointSizeIsFlatInSteps)
{
    // Without access history nothing in a checkpoint grows with the
    // run but the per-subnet results: the threaded executor
    // materializes every layer (a fixed store section) and the log
    // section holds one cursor per layer. Doubling the run adds
    // exactly one loss and one completion time (8 bytes each) per
    // extra subnet.
    SearchSpace space = makeSpaceByName("NLP.c1");
    auto lastCheckpointBytes = [&space](int steps) {
        RuntimeConfig c;
        c.system = naspipeSystem();
        c.numStages = 2;
        c.totalSubnets = steps;
        c.seed = 7;
        c.ckptInterval = 512;
        RunResult r = runTrainingThreaded(space, c);
        EXPECT_FALSE(r.failed) << r.error;
        EXPECT_EQ(r.metrics.checkpointsWritten, steps / 512);
        return r.metrics.checkpointBytes;
    };
    std::uint64_t at2k = lastCheckpointBytes(2048);
    std::uint64_t at4k = lastCheckpointBytes(4096);
    EXPECT_EQ(at4k - at2k, 2048u * 16u);
}

/** Write `bytes` verbatim over `path`. */
void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

TEST(CheckpointProperties, CorruptRunCheckpointFileIsRejectedCleanly)
{
    // The on-disk half of the fuzz: damage a real NPRC v1 *file* —
    // every byte of the header, a stride through the payload, every
    // truncation prefix — and loadFile must return false each time,
    // never abort. This is the file the CLI's --resume hands to a
    // fresh process, so "clean false" here is what backs exit code 3.
    RunCheckpoint ckpt;
    ckpt.seed = 42;
    ckpt.spaceBlocks = 12;
    ckpt.spaceChoices = 4;
    ckpt.totalSubnets = 16;
    ckpt.completed = 2;
    ckpt.simSeconds = 3.5;
    ckpt.losses = {0.5, 0.4};
    ckpt.completionSec = {1.0, 2.0};
    ckpt.storeBytes = "store-payload-stand-in";
    std::string path =
        ::testing::TempDir() + "naspipe_fuzz_run.ckpt";
    ASSERT_TRUE(ckpt.saveFileAtomic(path));
    std::string bytes = readFile(path);
    ASSERT_GT(bytes.size(), 32u);

    for (std::size_t pos = 0; pos < bytes.size();
         pos += (pos < 32 ? 1 : 13)) {
        std::string damaged = bytes;
        damaged[pos] ^= 0x40;
        writeFile(path, damaged);
        RunCheckpoint loaded;
        EXPECT_FALSE(loaded.loadFile(path))
            << "file byte flip at " << pos << " accepted";
    }
    for (std::size_t len = 0; len < bytes.size(); len += 7) {
        writeFile(path, bytes.substr(0, len));
        RunCheckpoint loaded;
        EXPECT_FALSE(loaded.loadFile(path))
            << "file truncation to " << len << " bytes accepted";
    }
    // Undamaged file still loads after the fuzz sweep.
    writeFile(path, bytes);
    RunCheckpoint loaded;
    EXPECT_TRUE(loaded.loadFile(path));
    std::remove(path.c_str());
}

TEST(CheckpointProperties, CorruptStoreFileIsRejectedCleanly)
{
    // Same sweep for a ParameterStore v2 file.
    SearchSpace space = makeTinySpace();
    ParameterStore store(space, 7);
    scribble(store);
    std::string path =
        ::testing::TempDir() + "naspipe_fuzz_store.bin";
    ASSERT_TRUE(store.saveFile(path));
    std::string bytes = readFile(path);
    ASSERT_GT(bytes.size(), 64u);

    for (std::size_t pos = 0; pos < bytes.size();
         pos += (pos < 64 ? 1 : 41)) {
        std::string damaged = bytes;
        damaged[pos] ^= 0x02;
        writeFile(path, damaged);
        ParameterStore restored(space, 7);
        EXPECT_FALSE(restored.loadFile(path))
            << "file byte flip at " << pos << " accepted";
    }
    for (std::size_t len = 0; len < bytes.size();
         len += (len < 64 ? 1 : 59)) {
        writeFile(path, bytes.substr(0, len));
        ParameterStore restored(space, 7);
        EXPECT_FALSE(restored.loadFile(path))
            << "file truncation to " << len << " bytes accepted";
    }
    writeFile(path, bytes);
    ParameterStore restored(space, 7);
    EXPECT_TRUE(restored.loadFile(path));
    EXPECT_EQ(restored.supernetHash(), store.supernetHash());
    std::remove(path.c_str());
}

TEST(CheckpointProperties, MissingFilesAreCleanFalses)
{
    RunCheckpoint ckpt;
    EXPECT_FALSE(ckpt.loadFile("/nonexistent/naspipe.ckpt"));
    SearchSpace space = makeTinySpace();
    ParameterStore store(space, 7);
    EXPECT_FALSE(store.loadFile("/nonexistent/naspipe_store.bin"));
}

TEST(CheckpointProperties, AtomicSaveLeavesNoTempFileBehind)
{
    RunCheckpoint ckpt;
    ckpt.completed = 0;
    std::string path =
        ::testing::TempDir() + "naspipe_atomic_test.ckpt";
    ASSERT_TRUE(ckpt.saveFileAtomic(path));
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
    RunCheckpoint loaded;
    EXPECT_TRUE(loaded.loadFile(path));
    std::remove(path.c_str());
}

TEST(CheckpointProperties, FailedAtomicSaveKeepsOldFileAndNoTemp)
{
    std::string path =
        ::testing::TempDir() + "naspipe_fsize_test.ckpt";
    auto slurp = [&path] {
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    RunCheckpoint small;
    ASSERT_TRUE(small.saveFileAtomic(path));
    const std::string before = slurp();
    ASSERT_LT(before.size(), 600u);

    // A larger save runs out of room mid-write (disk full, quota):
    // a forked child under a 600-byte RLIMIT_FSIZE, with SIGXFSZ
    // ignored so the write fails with EFBIG instead of killing it.
    RunCheckpoint big;
    big.storeBytes.assign(10000, 'x');
    pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        std::signal(SIGXFSZ, SIG_IGN);
        rlimit limit{};
        getrlimit(RLIMIT_FSIZE, &limit);
        limit.rlim_cur = 600;
        setrlimit(RLIMIT_FSIZE, &limit);
        _exit(big.saveFileAtomic(path) ? 1 : 0);
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "a save past the size limit must report failure";

    EXPECT_EQ(slurp(), before);
    RunCheckpoint loaded;
    EXPECT_TRUE(loaded.loadFile(path));
    EXPECT_FALSE(std::ifstream(path + ".tmp").good())
        << "the failed save left its temp file behind";
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
}

} // namespace
} // namespace naspipe
