/**
 * @file
 * Convergence curve and search tests.
 */

#include <gtest/gtest.h>

#include "supernet/sampler.h"
#include "train/convergence.h"

namespace naspipe {
namespace {

/** A record table whose subnet i completed at times[i] with losses[i]. */
std::vector<SubnetRecord>
table(const std::vector<double> &times, const std::vector<float> &losses)
{
    std::vector<SubnetRecord> out;
    for (std::size_t i = 0; i < times.size(); i++)
        out.push_back(SubnetRecord{times[i], losses[i], true});
    return out;
}

TEST(ConvergenceCurve, FinalPointIsTheTrailingWindowMean)
{
    // 4 early losses then kLossWindow losses of 1.0: the last point
    // averages only the trailing window.
    std::vector<double> times;
    std::vector<float> losses = {4.0f, 3.0f, 2.0f, 1.5f};
    losses.resize(4 + kLossWindow, 1.0f);
    for (std::size_t i = 0; i < losses.size(); i++)
        times.push_back(static_cast<double>(i));
    auto curve = convergenceCurve(table(times, losses), 24.0);
    ASSERT_EQ(curve.size(), losses.size());
    EXPECT_DOUBLE_EQ(curve.back().loss, 1.0);
    EXPECT_DOUBLE_EQ(curve.back().score, 12.0);
    // Before the window fills, the mean covers every point so far.
    EXPECT_DOUBLE_EQ(curve[1].loss, 3.5);
    EXPECT_DOUBLE_EQ(curve[kLossWindow - 1].loss,
                     (4.0 + 3.0 + 2.0 + 1.5 + (kLossWindow - 4)) /
                         kLossWindow);
    // One past the window, the first loss has left it.
    EXPECT_DOUBLE_EQ(curve[kLossWindow].loss,
                     (3.0 + 2.0 + 1.5 + (kLossWindow - 3)) /
                         kLossWindow);
}

TEST(ConvergenceCurve, Downsamples)
{
    std::vector<double> times;
    std::vector<float> losses;
    for (int i = 0; i < 1000; i++) {
        times.push_back(i);
        losses.push_back(1.0f / static_cast<float>(1 + i));
    }
    auto curve = convergenceCurve(table(times, losses), 24.0);
    // Stride 1000 / 64 = 15: points 0, 15, ..., 990, then the last.
    EXPECT_EQ(curve.size(), 68u);
    EXPECT_GE(curve.size(), kCurvePoints);
    EXPECT_DOUBLE_EQ(curve[1].timeSec, 15.0);
    // Final point always present.
    EXPECT_DOUBLE_EQ(curve.back().timeSec, 999.0);
}

TEST(ConvergenceCurve, ScoresRiseAsLossFalls)
{
    auto curve =
        convergenceCurve(table({0.0, 1.0}, {2.0f, 0.5f}), 24.0);
    ASSERT_EQ(curve.size(), 2u);
    EXPECT_DOUBLE_EQ(curve[1].loss, 1.25);
    EXPECT_LT(curve[0].score, curve[1].score);
    EXPECT_GT(curve[0].loss, curve[1].loss);
}

TEST(ConvergenceCurve, SkipsSubnetsNotDone)
{
    std::vector<SubnetRecord> records(3);
    EXPECT_TRUE(convergenceCurve(records, 24.0).empty());
    records[1] = SubnetRecord{2.0, 0.5f, true};
    auto curve = convergenceCurve(records, 24.0);
    ASSERT_EQ(curve.size(), 1u);
    EXPECT_DOUBLE_EQ(curve[0].timeSec, 2.0);
    EXPECT_DOUBLE_EQ(curve[0].loss, 0.5);
}

TEST(ConvergenceCurve, OrdersCompletionsByTimeThenLoss)
{
    // Subnets complete out of ID order (and two at the same time):
    // the curve is that of the table sorted by (time, loss).
    std::vector<double> times = {3.0, 1.0, 2.0, 1.0, 0.5};
    std::vector<float> losses = {0.25f, 0.5f, 1.0f, 2.0f, 4.0f};
    auto curve = convergenceCurve(table(times, losses), 24.0);
    auto sorted = convergenceCurve(
        table({0.5, 1.0, 1.0, 2.0, 3.0}, {4.0f, 0.5f, 2.0f, 1.0f, 0.25f}),
        24.0);
    ASSERT_EQ(curve.size(), 5u);
    ASSERT_EQ(sorted.size(), 5u);
    for (std::size_t i = 0; i < curve.size(); i++) {
        EXPECT_EQ(curve[i].timeSec, sorted[i].timeSec) << i;
        EXPECT_EQ(curve[i].loss, sorted[i].loss) << i;
        EXPECT_EQ(curve[i].score, sorted[i].score) << i;
    }
    EXPECT_DOUBLE_EQ(curve[1].loss, (4.0 + 0.5) / 2);
    EXPECT_DOUBLE_EQ(curve[2].loss, (4.0 + 0.5 + 2.0) / 3);
}

TEST(ConvergenceCurve, NonPositiveScoreScalePanics)
{
    EXPECT_THROW(convergenceCurve(table({0.0}, {1.0f}), 0.0),
                 std::logic_error);
}

TEST(SearchBestSubnet, PicksLowestEvalLoss)
{
    SearchSpace space = makeTinySpace();
    ParameterStore store(space, 7);
    NumericExecutor::Config config;
    NumericExecutor exec(store, config);

    UniformSampler sampler(space, 5);
    std::vector<Subnet> candidates;
    for (int i = 0; i < 8; i++)
        candidates.push_back(sampler.next());

    SearchResult result = searchBestSubnet(exec, candidates, 24.0);
    ASSERT_EQ(result.allEvalLosses.size(), candidates.size());
    for (double loss : result.allEvalLosses)
        EXPECT_GE(loss, result.bestEvalLoss);
    EXPECT_GT(result.accuracy, 0.0);
    EXPECT_LT(result.accuracy, 24.0);
}

TEST(SearchBestSubnet, DeterministicAcrossCalls)
{
    SearchSpace space = makeTinySpace();
    ParameterStore store(space, 7);
    NumericExecutor::Config config;
    NumericExecutor exec(store, config);
    UniformSampler sampler(space, 5);
    std::vector<Subnet> candidates;
    for (int i = 0; i < 6; i++)
        candidates.push_back(sampler.next());
    SearchResult a = searchBestSubnet(exec, candidates, 24.0);
    SearchResult b = searchBestSubnet(exec, candidates, 24.0);
    EXPECT_EQ(a.best.id(), b.best.id());
    EXPECT_EQ(a.accuracy, b.accuracy);
}

TEST(SearchBestSubnet, EmptyCandidatesPanics)
{
    SearchSpace space = makeTinySpace();
    ParameterStore store(space, 7);
    NumericExecutor::Config config;
    NumericExecutor exec(store, config);
    EXPECT_THROW(searchBestSubnet(exec, {}, 24.0), std::logic_error);
}

} // namespace
} // namespace naspipe
