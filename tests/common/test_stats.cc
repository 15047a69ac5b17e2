/**
 * @file
 * Statistics primitive tests.
 */

#include <gtest/gtest.h>

#include "common/stats.h"

namespace naspipe {
namespace {

TEST(UtilizationTracker, BusyAccumulates)
{
    UtilizationTracker u;
    u.addBusy(0.0, 1.0);
    u.addBusy(2.0, 3.0);
    EXPECT_DOUBLE_EQ(u.busyTime(), 2.0);
    EXPECT_DOUBLE_EQ(u.firstStart(), 0.0);
    EXPECT_DOUBLE_EQ(u.lastEnd(), 3.0);
    EXPECT_EQ(u.intervals(), 2u);
}

TEST(UtilizationTracker, UtilizationOverWindow)
{
    UtilizationTracker u;
    u.addBusy(0.0, 2.0);
    EXPECT_DOUBLE_EQ(u.utilization(4.0), 0.5);
    EXPECT_DOUBLE_EQ(u.utilization(2.0), 1.0);
    EXPECT_DOUBLE_EQ(u.utilization(0.0), 0.0);
}

TEST(UtilizationTracker, BubbleRatio)
{
    UtilizationTracker u;
    // Busy 1s of a 4s active window => bubble 0.75.
    u.addBusy(1.0, 1.5);
    u.addBusy(4.5, 5.0);
    EXPECT_DOUBLE_EQ(u.bubbleRatio(), 0.75);
}

TEST(UtilizationTracker, FullyBusyHasNoBubble)
{
    UtilizationTracker u;
    u.addBusy(0.0, 1.0);
    u.addBusy(1.0, 2.0);
    EXPECT_DOUBLE_EQ(u.bubbleRatio(), 0.0);
}

TEST(UtilizationTracker, EmptyTracker)
{
    UtilizationTracker u;
    EXPECT_DOUBLE_EQ(u.bubbleRatio(), 0.0);
    EXPECT_DOUBLE_EQ(u.utilization(10.0), 0.0);
}

TEST(RatioStat, Rates)
{
    RatioStat r;
    EXPECT_DOUBLE_EQ(r.rate(), 0.0);
    r.hit(9);
    r.miss();
    EXPECT_DOUBLE_EQ(r.rate(), 0.9);
    EXPECT_EQ(r.total(), 10u);
    r.reset();
    EXPECT_EQ(r.total(), 0u);
}

} // namespace
} // namespace naspipe
