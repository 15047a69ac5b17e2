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
#include <cstring>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/parallel_runtime.h"
#include "runtime/pipeline_runtime.h"
#include "supernet/search_space.h"
#include "train/param_store.h"
#include "train/run_checkpoint.h"

namespace naspipe {
namespace {

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

/** A store with a few deterministic training writes applied. */
void
scribble(ParameterStore &store)
{
    store.write(LayerId{1, 2}, 0).weight[3] = 0.123f;
    store.write(LayerId{0, 0}, 1).bias[7] = -4.5f;
    store.write(LayerId{1, 2}, 2).weight[0] += 1.0f;
    store.read(LayerId{2, 1}, 3);
}

TEST(CheckpointProperties, StoreSaveLoadHashIdentity)
{
    SearchSpace space = makeTinySpace();
    ParameterStore store(space, 7);
    scribble(store);

    ParameterStore restored(space, 7);
    ASSERT_TRUE(restored.load(store.serialize()));
    EXPECT_EQ(store.supernetHash(), restored.supernetHash());
    EXPECT_EQ(store.touchedHash(), restored.touchedHash());
}

TEST(CheckpointProperties, StoreLoadPreservesVersions)
{
    SearchSpace space = makeTinySpace();
    ParameterStore store(space, 7);
    scribble(store);
    ASSERT_EQ(store.version(LayerId{1, 2}), 2u);

    ParameterStore restored(space, 7);
    ASSERT_TRUE(restored.load(store.serialize()));
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

        ParameterStore restored(space, 7);
        ASSERT_TRUE(restored.load(ckpt.storeBytes));
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
    std::string bytes = store.serialize();
    ASSERT_GT(bytes.size(), 64u);

    for (std::size_t pos = 0; pos < bytes.size();
         pos += (pos < 64 ? 1 : 37)) {
        std::string damaged = bytes;
        damaged[pos] ^= 0x01;
        ParameterStore restored(space, 7);
        EXPECT_FALSE(restored.load(damaged))
            << "byte flip at " << pos << " accepted";
    }
}

TEST(CheckpointProperties, EveryStoreTruncationIsRejectedCleanly)
{
    SearchSpace space = makeTinySpace();
    ParameterStore store(space, 7);
    scribble(store);
    std::string bytes = store.serialize();

    for (std::size_t len = 0; len < bytes.size();
         len += (len < 64 ? 1 : 53)) {
        ParameterStore restored(space, 7);
        EXPECT_FALSE(restored.load(bytes.substr(0, len)))
            << "truncation to " << len << " bytes accepted";
    }
}

TEST(CheckpointProperties, RejectedStoreLoadLeavesTheStoreUntouched)
{
    // A checksum is no proof of origin: a payload that verifies but
    // names a layer outside the space in its last record must be
    // refused before any earlier record lands.
    SearchSpace space = makeTinySpace();
    ParameterStore source(space, 7);
    scribble(source);
    std::string bytes = source.serialize();
    const std::size_t layerBytes = 16 + 2 * kLayerDim * sizeof(float);
    ASSERT_EQ(bytes.size(), 48 + 3 * layerBytes);
    const std::uint64_t outside =
        static_cast<std::uint64_t>(space.numBlocks()) << 32;
    std::memcpy(bytes.data() + 48 + 2 * layerBytes, &outside,
                sizeof(outside));
    const std::uint64_t sum =
        checksumBytes(bytes.data() + 48, bytes.size() - 48);
    std::memcpy(bytes.data() + 40, &sum, sizeof(sum));

    ParameterStore target(space, 7);
    target.write(LayerId{1, 2}, 5).weight[1] = 2.5f;
    target.write(LayerId{0, 0}, 6);
    const std::uint64_t touched = target.touchedHash();
    std::vector<ParameterStore::LayerStamp> stamps;
    for (int b = 0; b < space.numBlocks(); b++) {
        for (int c = 0; c < space.choicesPerBlock(); c++) {
            stamps.push_back(target.stamp(
                LayerId{static_cast<std::uint32_t>(b),
                        static_cast<std::uint32_t>(c)}));
        }
    }
    EXPECT_FALSE(target.load(bytes));
    EXPECT_EQ(target.touchedHash(), touched);
    EXPECT_EQ(target.materializedLayers(), 2u);
    std::size_t i = 0;
    for (int b = 0; b < space.numBlocks(); b++) {
        for (int c = 0; c < space.choicesPerBlock(); c++) {
            EXPECT_EQ(target.stamp(
                          LayerId{static_cast<std::uint32_t>(b),
                                  static_cast<std::uint32_t>(c)}),
                      stamps[i++])
                << "layer (" << b << ", " << c << ")";
        }
    }
}

TEST(CheckpointProperties, StoreMismatchReturnsFalseNotFatal)
{
    SearchSpace space = makeTinySpace();
    ParameterStore store(space, 7);
    std::string bytes = store.serialize();

    // Wrong seed.
    {
        ParameterStore otherSeed(space, 8);
        EXPECT_FALSE(otherSeed.load(bytes));
    }
    // Wrong space shape.
    {
        SearchSpace bigger("other", SpaceFamily::Nlp, 6, 3, 5);
        ParameterStore otherShape(bigger, 7);
        EXPECT_FALSE(otherShape.load(bytes));
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

    RunCheckpoint loaded;
    ASSERT_TRUE(loaded.load(ckpt.serialize()));
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
    std::string bytes = ckpt.serialize();

    for (std::size_t pos = 0; pos < bytes.size();
         pos += (pos < 32 ? 1 : 11)) {
        std::string damaged = bytes;
        damaged[pos] ^= 0x80;
        RunCheckpoint loaded;
        EXPECT_FALSE(loaded.load(damaged))
            << "byte flip at " << pos << " accepted";
    }
    for (std::size_t len = 0; len < bytes.size(); len += 9) {
        RunCheckpoint loaded;
        EXPECT_FALSE(loaded.load(bytes.substr(0, len)))
            << "truncation to " << len << " bytes accepted";
    }
}

/** A run checkpoint around a real store, as a drained run writes it. */
RunCheckpoint
sampleRunCheckpoint(ParameterStore &store)
{
    RunCheckpoint ckpt;
    ckpt.seed = 7;
    ckpt.spaceBlocks = 12;
    ckpt.spaceChoices = 4;
    ckpt.totalSubnets = 64;
    ckpt.completed = 3;
    ckpt.losses = {0.5, 0.4, 0.3};
    ckpt.completionSec = {1.0, 2.0, 3.0};
    ckpt.storeBytes = store.serialize();
    ckpt.accessLogBytes = std::string("log\0bytes", 9);
    return ckpt;
}

/**
 * @p bytes re-labelled as format @p version with its checksum
 * replaced by @p checksum of the payload (which starts at
 * @p headerBytes; the checksum field is the header's last 8 bytes).
 */
std::string
relabel(std::string bytes, std::uint32_t version,
        std::uint64_t (*checksum)(const void *, std::size_t),
        std::size_t headerBytes)
{
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    std::uint64_t sum = checksum(bytes.data() + headerBytes,
                                 bytes.size() - headerBytes);
    std::memcpy(bytes.data() + headerBytes - 8, &sum, sizeof(sum));
    return bytes;
}

std::uint64_t
fnv1a(const void *data, std::size_t size)
{
    return hashBytes(data, size);
}

TEST(CheckpointProperties, SerializeIsSaveAtExactSize)
{
    SearchSpace space = makeTinySpace();
    ParameterStore store(space, 7);
    scribble(store);
    const std::string storeBytes = store.serialize();
    const std::string path =
        ::testing::TempDir() + "naspipe_exact_size_store.bin";
    ASSERT_TRUE(store.saveFile(path));
    EXPECT_EQ(storeBytes, readFile(path));
    std::remove(path.c_str());
    // 48-byte header, then key + version + weight + bias per layer.
    EXPECT_EQ(storeBytes.size(),
              48 + store.materializedLayers() *
                       (16 + 2 * kLayerDim * sizeof(float)));

    RunCheckpoint ckpt = sampleRunCheckpoint(store);
    const std::string runBytes = ckpt.serialize();
    std::stringstream streamed;
    ASSERT_TRUE(ckpt.save(streamed));
    EXPECT_EQ(runBytes, streamed.str());
    // 24-byte header, 60 bytes of scalars, four length-prefixed
    // sections.
    EXPECT_EQ(runBytes.size(),
              24 + 60 + (8 + 3 * sizeof(double)) * 2 +
                  (8 + storeBytes.size()) + (8 + 9));
}

TEST(CheckpointProperties, ChecksumIsPickedByFormatVersion)
{
    SearchSpace space = makeTinySpace();
    ParameterStore store(space, 7);
    scribble(store);
    const std::string storeBytes = store.serialize();
    const std::string runBytes = sampleRunCheckpoint(store).serialize();

    auto storeLoads = [&space](const std::string &bytes) {
        ParameterStore restored(space, 7);
        return restored.load(bytes);
    };
    auto runLoads = [](const std::string &bytes) {
        RunCheckpoint loaded;
        return loaded.load(bytes);
    };
    // Version 3 carries checksumBytes; version 2 (and NPRC version 1)
    // byte FNV-1a. Each verifies only under its own version.
    EXPECT_TRUE(storeLoads(storeBytes));
    EXPECT_TRUE(storeLoads(relabel(storeBytes, 2, fnv1a, 48)));
    EXPECT_FALSE(storeLoads(relabel(storeBytes, 2, checksumBytes, 48)));
    EXPECT_FALSE(storeLoads(relabel(storeBytes, 3, fnv1a, 48)));

    EXPECT_TRUE(runLoads(runBytes));
    EXPECT_TRUE(runLoads(relabel(runBytes, 2, fnv1a, 24)));
    EXPECT_FALSE(runLoads(relabel(runBytes, 2, checksumBytes, 24)));
    EXPECT_FALSE(runLoads(relabel(runBytes, 3, fnv1a, 24)));
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
    RunCheckpoint loaded;
    EXPECT_FALSE(loaded.load(ckpt.serialize()));
}

TEST(CheckpointProperties, AccessLogRoundTrip)
{
    AccessLog log(4, 2, /*keepHistory=*/true);
    log.record(LayerId{0, 1}, 2, AccessKind::Read);
    log.record(LayerId{0, 1}, 2, AccessKind::Write);
    log.record(LayerId{3, 0}, 5, AccessKind::Read);

    AccessLog loaded(4, 2, /*keepHistory=*/true);
    ASSERT_TRUE(loaded.loadFrom(log.serialize()));
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
    const std::string bytes = log.serialize();
    // Counter, shape, flags and one 24-byte cursor per layer: the
    // section's size depends on the space only.
    EXPECT_EQ(bytes.size(), 3 * 8 + 8 * 24u);

    AccessLog loaded(4, 2);
    ASSERT_TRUE(loaded.loadFrom(bytes));
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
    const std::string noHistory = plain.serialize();
    // A log that keeps history refuses a section without one...
    AccessLog keeper(4, 2, /*keepHistory=*/true);
    EXPECT_FALSE(keeper.loadFrom(noHistory));
    EXPECT_EQ(keeper.totalRecords(), 0u);

    // ...while a log without history takes the cursors of one that
    // has it.
    AccessLog full(4, 2, /*keepHistory=*/true);
    scribble(full);
    const std::string withHistory = full.serialize();
    AccessLog cursorsOnly(4, 2);
    ASSERT_TRUE(cursorsOnly.loadFrom(withHistory));
    EXPECT_EQ(cursorsOnly.violatedLayers(), full.violatedLayers());
    EXPECT_EQ(cursorsOnly.totalRecords(), full.totalRecords());

    // A section saved for another space shape is refused.
    AccessLog otherShape(2, 4);
    EXPECT_FALSE(otherShape.loadFrom(noHistory));
}

TEST(CheckpointProperties, AccessLogRejectsDamagedStream)
{
    for (bool history : {true, false}) {
        SCOPED_TRACE(history ? "with history" : "cursors only");
        AccessLog log(4, 2, history);
        log.record(LayerId{0, 1}, 2, AccessKind::Read);
        log.record(LayerId{1, 0}, 3, AccessKind::Write);
        std::string bytes = log.serialize();

        for (std::size_t len = 0; len < bytes.size(); len += 5) {
            AccessLog loaded(4, 2, history);
            EXPECT_FALSE(loaded.loadFrom(bytes.substr(0, len)))
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
            AccessLog loaded(4, 2, history);
            bool accepted = loaded.loadFrom(damaged);
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
    // Run checkpoints and parameter stores share one atomic writer.
    std::string path =
        ::testing::TempDir() + "naspipe_atomic_test.ckpt";
    RunCheckpoint ckpt;
    ckpt.completed = 0;
    ASSERT_TRUE(ckpt.saveFileAtomic(path));
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
    RunCheckpoint loaded;
    EXPECT_TRUE(loaded.loadFile(path));

    SearchSpace space = makeTinySpace();
    ParameterStore store(space, 7);
    scribble(store);
    ASSERT_TRUE(store.saveFile(path));
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
    ParameterStore restored(space, 7);
    EXPECT_TRUE(restored.loadFile(path));
    std::remove(path.c_str());
}

/**
 * A larger save that runs out of room mid-write (disk full, quota)
 * must report failure, keep the file @p saveSmall wrote, and leave
 * no temp file: @p saveBig runs in a forked child under a 600-byte
 * RLIMIT_FSIZE, with SIGXFSZ ignored so the write fails with EFBIG
 * instead of killing it. @p load reads the file back.
 */
void
expectFailedSaveKeepsOldFile(const std::string &path,
                             const std::function<bool()> &saveSmall,
                             const std::function<bool()> &saveBig,
                             const std::function<bool()> &load)
{
    ASSERT_TRUE(saveSmall());
    const std::string before = readFile(path);
    ASSERT_LT(before.size(), 600u);

    pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        std::signal(SIGXFSZ, SIG_IGN);
        rlimit limit{};
        getrlimit(RLIMIT_FSIZE, &limit);
        limit.rlim_cur = 600;
        setrlimit(RLIMIT_FSIZE, &limit);
        _exit(saveBig() ? 1 : 0);
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "a save past the size limit must report failure";

    EXPECT_EQ(readFile(path), before);
    EXPECT_TRUE(load());
    EXPECT_FALSE(std::ifstream(path + ".tmp").good())
        << "the failed save left its temp file behind";
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
}

TEST(CheckpointProperties, FailedAtomicSaveKeepsOldFileAndNoTemp)
{
    std::string path =
        ::testing::TempDir() + "naspipe_fsize_test.ckpt";
    {
        SCOPED_TRACE("run checkpoint");
        RunCheckpoint small;
        RunCheckpoint big;
        big.storeBytes.assign(10000, 'x');
        expectFailedSaveKeepsOldFile(
            path, [&] { return small.saveFileAtomic(path); },
            [&] { return big.saveFileAtomic(path); },
            [&] { return RunCheckpoint().loadFile(path); });
    }
    {
        SCOPED_TRACE("parameter store");
        SearchSpace space = makeTinySpace();
        ParameterStore small(space, 7);
        ParameterStore big(space, 7);
        big.materializeAll();
        expectFailedSaveKeepsOldFile(
            path, [&] { return small.saveFile(path); },
            [&] { return big.saveFile(path); },
            [&] { return ParameterStore(space, 7).loadFile(path); });
    }
}

} // namespace
} // namespace naspipe
