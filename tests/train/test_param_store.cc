/**
 * @file
 * Shared parameter store tests.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "train/param_store.h"

namespace naspipe {
namespace {

struct StoreFixture : ::testing::Test {
    StoreFixture() : space(makeTinySpace()), store(space, 7) {}

    SearchSpace space;
    ParameterStore store;
};

TEST_F(StoreFixture, LazyMaterializationIsDeterministic)
{
    ParameterStore other(space, 7);
    LayerId layer{1, 2};
    EXPECT_TRUE(store.peek(layer).bitwiseEqual(other.peek(layer)));
}

TEST_F(StoreFixture, SeedChangesInitialWeights)
{
    ParameterStore other(space, 8);
    LayerId layer{1, 2};
    EXPECT_FALSE(store.peek(layer).bitwiseEqual(other.peek(layer)));
}

TEST_F(StoreFixture, ReadLogsAndReturnsCurrent)
{
    store.accessLog().keepHistory(true);
    LayerId layer{0, 1};
    const LayerParams &p = store.read(layer, 3);
    EXPECT_TRUE(p.bitwiseEqual(store.peek(layer)));
    const auto &history = store.accessLog().layerHistory(layer);
    ASSERT_EQ(history.size(), 1u);
    EXPECT_EQ(history[0].subnet, 3);
    EXPECT_EQ(history[0].kind, AccessKind::Read);
}

TEST_F(StoreFixture, WriteBumpsVersionAndLogs)
{
    store.accessLog().keepHistory(true);
    LayerId layer{2, 0};
    EXPECT_EQ(store.version(layer), 0u);
    store.write(layer, 5).weight[0] += 1.0f;
    EXPECT_EQ(store.version(layer), 1u);
    store.write(layer, 6);
    EXPECT_EQ(store.version(layer), 2u);
    EXPECT_EQ(store.accessLog().layerHistory(layer).size(), 2u);
}

TEST_F(StoreFixture, PeekDoesNotLog)
{
    store.peek(LayerId{0, 0});
    EXPECT_EQ(store.accessLog().totalRecords(), 0u);
}

TEST_F(StoreFixture, SupernetHashDeterministicAndSensitive)
{
    ParameterStore other(space, 7);
    EXPECT_EQ(store.supernetHash(), other.supernetHash());
    other.write(LayerId{1, 1}, 0).weight[5] += 0.5f;
    EXPECT_NE(store.supernetHash(), other.supernetHash());
}

TEST_F(StoreFixture, SupernetHashCoversUntouchedLayers)
{
    // Hashing must materialize everything (Definition 1 compares the
    // weights of *all* layers).
    store.supernetHash();
    EXPECT_EQ(store.materializedLayers(),
              static_cast<std::size_t>(space.totalLayers()));
}

TEST_F(StoreFixture, TouchedHashOnlyDependsOnTouched)
{
    ParameterStore a(space, 7), b(space, 7);
    a.peek(LayerId{0, 0});
    b.peek(LayerId{0, 0});
    EXPECT_EQ(a.touchedHash(), b.touchedHash());
    b.peek(LayerId{0, 1});
    EXPECT_NE(a.touchedHash(), b.touchedHash());
}

TEST_F(StoreFixture, FreshStoreMaterializesNothing)
{
    EXPECT_EQ(store.materializedLayers(), 0u);
    EXPECT_EQ(store.version(LayerId{2, 1}), 0u);
    store.write(LayerId{2, 1}, 0);
    EXPECT_EQ(store.materializedLayers(), 1u);
    EXPECT_FALSE(store.fullyMaterialized());
}

TEST_F(StoreFixture, LoadKeepsAFullyMaterializedStoreFull)
{
    // The threaded executor materializes every layer before its
    // workers start and restores checkpoints afterwards: a load must
    // leave every slot materialized and put every version, zero
    // included, back to the checkpoint's.
    store.materializeAll();
    store.write(LayerId{1, 2}, 0).weight[3] = 0.5f;
    std::stringstream buffer;
    ASSERT_TRUE(store.save(buffer));

    ParameterStore restored(space, 7);
    restored.materializeAll();
    restored.write(LayerId{0, 0}, 1).bias[1] = 2.0f;
    restored.write(LayerId{1, 2}, 1);
    restored.write(LayerId{1, 2}, 2);
    ASSERT_TRUE(restored.load(buffer));
    EXPECT_TRUE(restored.fullyMaterialized());
    EXPECT_EQ(restored.version(LayerId{0, 0}), 0u);
    EXPECT_EQ(restored.version(LayerId{1, 2}), 1u);
    EXPECT_EQ(restored.supernetHash(), store.supernetHash());
}

TEST_F(StoreFixture, StampChangesOnWriteAndLoad)
{
    LayerId layer{1, 1};
    store.materializeAll();
    std::stringstream before;
    ASSERT_TRUE(store.save(before));
    ParameterStore::LayerStamp fresh = store.stamp(layer);
    store.write(layer, 0);
    ParameterStore::LayerStamp written = store.stamp(layer);
    EXPECT_NE(written, fresh);
    EXPECT_EQ(store.stamp(LayerId{1, 0}), fresh);  // other layers keep
    // The load restores version 0, the fresh version: only the epoch
    // keeps the stamp from repeating.
    ASSERT_TRUE(store.load(before));
    EXPECT_EQ(store.version(layer), fresh.version);
    EXPECT_NE(store.stamp(layer), fresh);
    EXPECT_NE(store.stamp(layer), written);
}

TEST_F(StoreFixture, CheckpointRoundTripsBitwise)
{
    // Train a little, checkpoint, restore into a fresh store.
    store.write(LayerId{1, 2}, 0).weight[3] = 0.123f;
    store.write(LayerId{0, 0}, 1).bias[7] = -4.5f;
    std::stringstream buffer;
    ASSERT_TRUE(store.save(buffer));

    ParameterStore restored(space, 7);
    ASSERT_TRUE(restored.load(buffer));
    EXPECT_EQ(store.supernetHash(), restored.supernetHash());
    EXPECT_EQ(restored.peek(LayerId{1, 2}).weight[3], 0.123f);
}

TEST_F(StoreFixture, CheckpointFileRoundTrip)
{
    store.write(LayerId{2, 1}, 0).weight[0] = 9.0f;
    std::string path =
        ::testing::TempDir() + "naspipe_store_test.ckpt";
    ASSERT_TRUE(store.saveFile(path));
    ParameterStore restored(space, 7);
    ASSERT_TRUE(restored.loadFile(path));
    EXPECT_EQ(store.supernetHash(), restored.supernetHash());
    std::remove(path.c_str());
}

TEST_F(StoreFixture, CheckpointRejectsGarbage)
{
    std::stringstream buffer("not a checkpoint");
    EXPECT_FALSE(store.load(buffer));
}

TEST_F(StoreFixture, CheckpointRejectsMismatchedStore)
{
    // A mismatched checkpoint is an expected operational condition
    // (wrong file, stale run), not a programming error: load reports
    // it and returns false instead of aborting.
    std::stringstream buffer;
    ASSERT_TRUE(store.save(buffer));
    ParameterStore otherSeed(space, 8);
    EXPECT_FALSE(otherSeed.load(buffer));
    EXPECT_EQ(otherSeed.supernetHash(),
              ParameterStore(space, 8).supernetHash());
}

TEST_F(StoreFixture, CheckpointTruncatedStreamFails)
{
    store.peek(LayerId{0, 0});
    std::stringstream buffer;
    ASSERT_TRUE(store.save(buffer));
    std::string bytes = buffer.str();
    std::stringstream truncated(
        bytes.substr(0, bytes.size() - 10));
    ParameterStore restored(space, 7);
    EXPECT_FALSE(restored.load(truncated));
}

TEST_F(StoreFixture, OutOfSpaceLayerPanics)
{
    EXPECT_THROW(store.peek(LayerId{4, 0}), std::logic_error);
    EXPECT_THROW(store.peek(LayerId{0, 3}), std::logic_error);
}

} // namespace
} // namespace naspipe
