/**
 * @file
 * Stage state tests.
 */

#include <gtest/gtest.h>

#include "runtime/stage.h"

namespace naspipe {
namespace {

struct StageFixture : ::testing::Test {
    StageFixture()
        : space(makeTinySpace()), gpu(sim, 0, GpuConfig{})
    {
        Stage::Hooks hooks;
        hooks.blockRange = [](SubnetId) {
            return std::pair<int, int>{0, 1};
        };
        hooks.upstreamWritesDone = [](SubnetId) { return true; };
        stage = std::make_unique<Stage>(space, gpu, 0, 4,
                                        MemoryMode::PredictivePrefetch,
                                        std::move(hooks));
    }

    Simulator sim;
    SearchSpace space;
    Gpu gpu;
    std::unique_ptr<Stage> stage;
};

TEST_F(StageFixture, StageInfoBasics)
{
    EXPECT_EQ(stage->stageIndex(), 0);
    EXPECT_EQ(stage->numStages(), 4);
    EXPECT_EQ(stage->blockRange(0), (std::pair<int, int>{0, 1}));
    EXPECT_TRUE(stage->upstreamWritesDone(0));
}

TEST_F(StageFixture, QueueLifecycle)
{
    stage->registerSubnet(Subnet(0, {0, 1, 2, 0}));
    stage->pushFwd(0);
    EXPECT_EQ(stage->fwdCandidates().size(), 1u);
    stage->popFwd(0);
    EXPECT_TRUE(stage->fwdCandidates().empty());
}

TEST_F(StageFixture, BwdQueueCarriesMetadata)
{
    stage->registerSubnet(Subnet(0, {0, 1, 2, 0}));
    std::vector<PendingBackward> meta = {{3, 3}};
    stage->pushBwd(0, meta);
    EXPECT_EQ(stage->bwdCandidates().size(), 1u);
    auto out = stage->popBwd(0);
    EXPECT_EQ(out, meta);
    EXPECT_TRUE(stage->bwdCandidates().empty());
}

TEST_F(StageFixture, DoublePushPanics)
{
    stage->registerSubnet(Subnet(0, {0, 1, 2, 0}));
    stage->pushFwd(0);
    EXPECT_THROW(stage->pushFwd(0), std::logic_error);
    stage->pushBwd(0, {});
    EXPECT_THROW(stage->pushBwd(0, {}), std::logic_error);
}

TEST_F(StageFixture, PopMissingPanics)
{
    EXPECT_THROW(stage->popFwd(9), std::logic_error);
    EXPECT_THROW(stage->popBwd(9), std::logic_error);
}

TEST_F(StageFixture, SubnetLookupThroughDeps)
{
    Subnet sn(0, {0, 1, 2, 0});
    stage->registerSubnet(sn);
    EXPECT_EQ(stage->subnet(0), sn);
}

TEST_F(StageFixture, BusySecondsReflectEngine)
{
    EXPECT_DOUBLE_EQ(stage->busySeconds(), 0.0);
    stage->gpu().compute().reserve(ticksFromSec(2.0));
    EXPECT_DOUBLE_EQ(stage->busySeconds(), 2.0);
}

TEST(StageHooks, MissingHooksPanic)
{
    Simulator sim;
    SearchSpace space = makeTinySpace();
    Gpu gpu(sim, 0, GpuConfig{});
    Stage::Hooks empty;
    EXPECT_THROW(Stage(space, gpu, 0, 2,
                       MemoryMode::AllResident, std::move(empty)),
                 std::logic_error);
}

} // namespace
} // namespace naspipe
