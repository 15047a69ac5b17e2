/**
 * @file
 * Capacity planner tests: Table 2's batch/memory columns and the
 * NLP.c0 OOM behaviour.
 */

#include <gtest/gtest.h>

#include "memory/swap_model.h"

namespace naspipe {
namespace {

struct PlannerFixture : ::testing::Test {
    GpuConfig gpu;  // 11 GB 2080Ti defaults
};

TEST_F(PlannerFixture, Nlpc0OomsAllResidentSystems)
{
    SearchSpace space = makeNlpC0();
    CapacityPlanner planner(space, gpu);
    EXPECT_FALSE(planner.plan(gpipeSystem(), 8).fits);
    EXPECT_FALSE(planner.plan(pipedreamSystem(), 8).fits);
    EXPECT_TRUE(planner.plan(naspipeSystem(), 8).fits);
    EXPECT_TRUE(planner.plan(vpipeSystem(), 8).fits);
}

TEST_F(PlannerFixture, Nlpc1BatchOrdering)
{
    // Table 2 ordering: NASPipe ~ VPipe >> GPipe > PipeDream.
    SearchSpace space = makeNlpC1();
    CapacityPlanner planner(space, gpu);
    int naspipe = planner.plan(naspipeSystem(), 8).batch;
    int vpipe = planner.plan(vpipeSystem(), 8).batch;
    int gpipeB = planner.plan(gpipeSystem(), 8).batch;
    int pipedream = planner.plan(pipedreamSystem(), 8).batch;
    EXPECT_GT(naspipe, 2 * gpipeB);
    EXPECT_GT(gpipeB, pipedream);
    EXPECT_NEAR(naspipe, vpipe, vpipe / 10 + 4);
    // Ballpark of the paper's 32 for GPipe.
    EXPECT_GT(gpipeB, 16);
    EXPECT_LT(gpipeB, 96);
}

TEST_F(PlannerFixture, BatchGrowsAsSupernetShrinks)
{
    CapacityPlanner c1(makeNlpC1(), gpu);
    CapacityPlanner c2(makeNlpC2(), gpu);
    CapacityPlanner c3(makeNlpC3(), gpu);
    SystemModel gp = gpipeSystem();
    int b1 = c1.plan(gp, 8).batch;
    int b2 = c2.plan(gp, 8).batch;
    int b3 = c3.plan(gp, 8).batch;
    EXPECT_LT(b1, b2);
    EXPECT_LT(b2, b3);
}

TEST_F(PlannerFixture, MaxBatchCapRespected)
{
    CapacityPlanner planner(makeNlpC3(), gpu);
    EXPECT_LE(planner.plan(naspipeSystem(), 8).batch, 192);
    CapacityPlanner cv(makeCvC3(), gpu);
    EXPECT_LE(cv.plan(naspipeSystem(), 8).batch, 64);
}

TEST_F(PlannerFixture, CpuMemoryOnlyForSwapSystems)
{
    SearchSpace space = makeNlpC1();
    CapacityPlanner planner(space, gpu);
    EXPECT_EQ(planner.plan(gpipeSystem(), 8).cpuMemBytesTotal, 0u);
    EXPECT_EQ(planner.plan(naspipeSystem(), 8).cpuMemBytesTotal,
              space.totalParamBytes());
    EXPECT_EQ(planner.plan(vpipeSystem(), 8).cpuMemBytesTotal,
              space.totalParamBytes());
}

TEST_F(PlannerFixture, ReportedParamsMatchResidencyStrategy)
{
    SearchSpace space = makeNlpC1();
    CapacityPlanner planner(space, gpu);
    EXPECT_EQ(planner.plan(gpipeSystem(), 8).reportedParamBytes,
              space.totalParamBytes());
    EXPECT_EQ(planner.plan(vpipeSystem(), 8).reportedParamBytes,
              space.meanSubnetParamBytes());
    // NASPipe's cache: previous + current + next (~3x one subnet).
    EXPECT_EQ(planner.plan(naspipeSystem(), 8).reportedParamBytes,
              3 * space.meanSubnetParamBytes());
}

TEST_F(PlannerFixture, SubnetCacheIsTinyNextToSupernet)
{
    SearchSpace space = makeNlpC1();
    CapacityPlanner planner(space, gpu);
    auto naspipe = planner.plan(naspipeSystem(), 8);
    auto gpipe = planner.plan(gpipeSystem(), 8);
    EXPECT_LT(naspipe.residentParamBytesPerGpu * 10,
              gpipe.residentParamBytesPerGpu);
}

TEST_F(PlannerFixture, WeightStashInflatesPipedreamFootprint)
{
    SearchSpace space = makeNlpC1();
    CapacityPlanner planner(space, gpu);
    auto pd = planner.plan(pipedreamSystem(), 8);
    auto gp = planner.plan(gpipeSystem(), 8);
    EXPECT_GT(pd.residentParamBytesPerGpu,
              gp.residentParamBytesPerGpu);
}

TEST_F(PlannerFixture, WeightStashHoldsTheMeanOneFOneBVersions)
{
    // PipeDream's 1F1B steady state: stage s of D holds D - s - 1
    // extra weight versions of its subnet share, (D - 1) / 2 on
    // average over the stages (3.5 at D = 8).
    SearchSpace space = makeNlpC1();
    CapacityPlanner planner(space, gpu);
    SystemModel stash = pipedreamSystem();
    SystemModel noStash = stash;
    noStash.weightStash = false;
    for (int d : {1, 2, 8}) {
        double extra =
            static_cast<double>(
                planner.plan(stash, d).residentParamBytesPerGpu) -
            static_cast<double>(
                planner.plan(noStash, d).residentParamBytesPerGpu);
        double share =
            static_cast<double>(space.meanSubnetParamBytes()) / d;
        EXPECT_NEAR(extra, share * (d - 1) / 2.0, 1.0) << "D = " << d;
    }
}

TEST_F(PlannerFixture, MoreGpusRelieveAllResidentPressure)
{
    SearchSpace space = makeNlpC0();
    CapacityPlanner planner(space, gpu);
    EXPECT_FALSE(planner.plan(gpipeSystem(), 8).fits);
    EXPECT_TRUE(planner.plan(gpipeSystem(), 16).fits);
}

TEST_F(PlannerFixture, CvBatchesInPaperBallpark)
{
    CapacityPlanner planner(makeCvC1(), gpu);
    int gpipeB = planner.plan(gpipeSystem(), 8).batch;
    int pipedream = planner.plan(pipedreamSystem(), 8).batch;
    // Paper: 24 and 12.
    EXPECT_GT(gpipeB, 12);
    EXPECT_LT(gpipeB, 48);
    EXPECT_GT(pipedream, 4);
    EXPECT_LT(pipedream, 24);
}

} // namespace
} // namespace naspipe
