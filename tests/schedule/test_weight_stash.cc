/**
 * @file
 * WeightStash (PipeDream ASP) tests.
 */

#include <gtest/gtest.h>

#include "schedule/asp_scheduler.h"

namespace naspipe {
namespace {

TEST(WeightStash, ForwardStashesBackwardReleases)
{
    WeightStash stash;
    stash.onForward(0, 100);
    stash.onForward(1, 200);
    EXPECT_EQ(stash.liveVersions(), 2u);
    EXPECT_EQ(stash.liveBytes(), 300u);
    EXPECT_EQ(stash.onBackward(0), 100u);
    EXPECT_EQ(stash.liveBytes(), 200u);
    EXPECT_EQ(stash.peakBytes(), 300u);
}

TEST(WeightStash, DoubleStashPanics)
{
    WeightStash stash;
    stash.onForward(0, 100);
    EXPECT_THROW(stash.onForward(0, 100), std::logic_error);
}

TEST(WeightStash, BackwardWithoutStashPanics)
{
    WeightStash stash;
    EXPECT_THROW(stash.onBackward(3), std::logic_error);
}

TEST(WeightStash, StashFactorPerStage)
{
    // 1F1B: stage s holds (D - s) versions; the extra factor is one
    // less than that.
    EXPECT_DOUBLE_EQ(WeightStash::stashFactor(0, 8), 7.0);
    EXPECT_DOUBLE_EQ(WeightStash::stashFactor(7, 8), 0.0);
    EXPECT_DOUBLE_EQ(WeightStash::meanStashFactor(8), 3.5);
}

TEST(WeightStash, Reset)
{
    WeightStash stash;
    stash.onForward(0, 50);
    stash.reset();
    EXPECT_EQ(stash.liveVersions(), 0u);
    EXPECT_EQ(stash.peakBytes(), 0u);
}

} // namespace
} // namespace naspipe
