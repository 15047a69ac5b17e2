/**
 * @file
 * Trace recorder tests.
 */

#include <gtest/gtest.h>

#include "obs/trace_export.h"
#include "sim/trace.h"

namespace naspipe {
namespace {

TEST(Trace, RecordsInOrder)
{
    Trace t;
    t.add({0, 10, 0, TraceKind::Forward, 0, ""});
    t.add({10, 20, 0, TraceKind::Backward, 0, ""});
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.records()[0].kind, TraceKind::Forward);
}

TEST(Trace, DisabledDropsRecords)
{
    Trace t;
    t.enabled(false);
    t.add({0, 1, 0, TraceKind::Forward, 0, ""});
    EXPECT_EQ(t.size(), 0u);
}

TEST(Trace, FiltersByKindAndStage)
{
    Trace t;
    t.add({0, 1, 0, TraceKind::Forward, 1, ""});
    t.add({1, 2, 1, TraceKind::Forward, 1, ""});
    t.add({2, 3, 0, TraceKind::Backward, 1, ""});
    t.add({3, 4, 0, TraceKind::Prefetch, 1, ""});
    EXPECT_EQ(t.byKind(TraceKind::Forward).size(), 2u);
    EXPECT_EQ(t.byStage(0).size(), 3u);
}

TEST(Trace, TaskTimelineSortedAndFiltered)
{
    Trace t;
    t.add({50, 60, 0, TraceKind::Backward, 2, ""});
    t.add({0, 10, 0, TraceKind::Forward, 1, ""});
    t.add({20, 30, 0, TraceKind::Prefetch, 1, ""});
    auto timeline = t.taskTimeline();
    ASSERT_EQ(timeline.size(), 2u);
    EXPECT_EQ(timeline[0].subnet, 1);
    EXPECT_EQ(timeline[1].subnet, 2);
}

TEST(Trace, NegativeDurationPanics)
{
    Trace t;
    EXPECT_THROW(t.add({10, 5, 0, TraceKind::Forward, 0, ""}),
                 std::logic_error);
}

TEST(Trace, RenderTimelineShowsStages)
{
    Trace t;
    t.add({0, kTicksPerSec, 0, TraceKind::Forward, 3, ""});
    t.add({kTicksPerSec, 2 * kTicksPerSec, 1, TraceKind::Backward, 3,
           ""});
    std::string chart = t.renderTimeline(2, 40);
    EXPECT_NE(chart.find("stage 0"), std::string::npos);
    EXPECT_NE(chart.find("stage 1"), std::string::npos);
    // Forward of subnet 3 renders as '3', backward as 'D'.
    EXPECT_NE(chart.find('3'), std::string::npos);
    EXPECT_NE(chart.find('D'), std::string::npos);
}

TEST(Trace, RenderEmptyTimeline)
{
    Trace t;
    EXPECT_EQ(t.renderTimeline(2), "(empty timeline)\n");
}

TEST(Trace, ChromeJsonExport)
{
    Trace t;
    t.add({0, 2 * kTicksPerUs, 0, TraceKind::Forward, 3, ""});
    t.add({5 * kTicksPerUs, 5 * kTicksPerUs, 1, TraceKind::Flush, -1,
           "bulk \"flush\""});
    obs::TraceHeader header;
    header.mode = "wall";
    header.numStages = 2;
    std::string json = obs::chromeTraceJson(t.records(), header);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"fwd SN3\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\":2.000"), std::string::npos);
    // Zero-duration records keep a visible 1 us.
    EXPECT_NE(json.find("\"ts\":5.000,\"dur\":1.000"),
              std::string::npos);
    // Quotes in details are escaped.
    EXPECT_NE(json.find("bulk \\\"flush\\\""), std::string::npos);
    // Stage maps to tid.
    EXPECT_NE(json.find("\"pid\":0,\"tid\":1,\"args\""),
              std::string::npos);
}

TEST(Trace, ChromeJsonEmpty)
{
    obs::TraceHeader header;
    header.mode = "wall";
    std::string json = obs::chromeTraceJson({}, header);
    // Only the process-name metadata, then the run header.
    EXPECT_EQ(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"mode\":\"wall\""), std::string::npos);
}

TEST(Trace, ClearEmpties)
{
    Trace t;
    t.add({0, 1, 0, TraceKind::Forward, 0, ""});
    t.clear();
    EXPECT_EQ(t.size(), 0u);
}

TEST(TraceKindName, AllNamed)
{
    EXPECT_STREQ(traceKindName(TraceKind::Forward), "fwd");
    EXPECT_STREQ(traceKindName(TraceKind::Backward), "bwd");
    EXPECT_STREQ(traceKindName(TraceKind::Prefetch), "prefetch");
    EXPECT_STREQ(traceKindName(TraceKind::Evict), "evict");
    EXPECT_STREQ(traceKindName(TraceKind::MirrorSync), "mirror");
    EXPECT_STREQ(traceKindName(TraceKind::Stall), "stall");
    EXPECT_STREQ(traceKindName(TraceKind::Flush), "flush");
}

} // namespace
} // namespace naspipe
