/**
 * @file
 * Supervision-layer unit tests: the recovery policy's bounded
 * retries and exponential backoff, the heartbeat watchdog's crash
 * and hang detection, and the seeded fault plan's determinism (the
 * executor-agnostic contract — one seed, one event sequence,
 * everywhere).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/heartbeat.h"
#include "fault/recovery_policy.h"
#include "fault/watchdog.h"

namespace naspipe {
namespace {

using fault::RecoveryPolicy;
using fault::Watchdog;
using fault::WorkerHeartbeat;
using fault::WorkerState;

TEST(RecoveryPolicy, BacksOffExponentiallyWithCap)
{
    RecoveryPolicy policy(
        RecoveryPolicy::Config{10, /*base=*/1.0, /*max=*/5.0});
    EXPECT_DOUBLE_EQ(policy.nextBackoffSeconds(), 1.0);
    EXPECT_DOUBLE_EQ(policy.nextBackoffSeconds(), 2.0);
    EXPECT_DOUBLE_EQ(policy.nextBackoffSeconds(), 4.0);
    EXPECT_DOUBLE_EQ(policy.nextBackoffSeconds(), 5.0);  // capped
    EXPECT_DOUBLE_EQ(policy.nextBackoffSeconds(), 5.0);
    EXPECT_EQ(policy.totalRecoveries(), 5);
}

TEST(RecoveryPolicy, BoundsConsecutiveRetries)
{
    RecoveryPolicy policy(RecoveryPolicy::Config{2, 1.0, 60.0});
    EXPECT_TRUE(policy.allowRetry());
    policy.nextBackoffSeconds();
    EXPECT_TRUE(policy.allowRetry());
    policy.nextBackoffSeconds();
    EXPECT_FALSE(policy.allowRetry());
    EXPECT_EQ(policy.consecutiveFailures(), 2);
}

TEST(RecoveryPolicy, ZeroRetriesRefusesTheFirstAttempt)
{
    RecoveryPolicy policy(RecoveryPolicy::Config{0, 1.0, 60.0});
    EXPECT_FALSE(policy.allowRetry());
}

TEST(RecoveryPolicy, ProgressResetsTheConsecutiveCountNotTheTotal)
{
    RecoveryPolicy policy(RecoveryPolicy::Config{2, 1.0, 60.0});
    policy.nextBackoffSeconds();
    policy.nextBackoffSeconds();
    EXPECT_FALSE(policy.allowRetry());
    policy.noteProgress();
    EXPECT_TRUE(policy.allowRetry());
    EXPECT_EQ(policy.consecutiveFailures(), 0);
    EXPECT_EQ(policy.totalRecoveries(), 2);
    // Backoff restarts at the base after progress.
    EXPECT_DOUBLE_EQ(policy.nextBackoffSeconds(), 1.0);
}

TEST(WorkerHeartbeat, TracksProgressAndState)
{
    WorkerHeartbeat hb;
    EXPECT_EQ(hb.progress(), 0u);
    EXPECT_EQ(hb.state(), WorkerState::Running);
    hb.beat();
    hb.beat();
    EXPECT_EQ(hb.progress(), 2u);
    hb.setState(WorkerState::Crashed);
    EXPECT_EQ(hb.state(), WorkerState::Crashed);
    EXPECT_STREQ(fault::workerStateName(WorkerState::Crashed),
                 "crashed");
    EXPECT_STREQ(fault::workerStateName(WorkerState::Stalled),
                 "stalled");
}

TEST(Watchdog, DetectsACrashedWorker)
{
    std::vector<WorkerHeartbeat> hearts(3);
    std::promise<std::pair<int, std::string>> incident;
    auto fired = incident.get_future();
    Watchdog dog(
        Watchdog::Config{},
        {&hearts[0], &hearts[1], &hearts[2]},
        [&incident](int worker, const std::string &reason) {
            incident.set_value({worker, reason});
        });
    hearts[1].setState(WorkerState::Crashed);
    ASSERT_EQ(fired.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    auto [worker, reason] = fired.get();
    EXPECT_EQ(worker, 1);
    EXPECT_NE(reason.find("crashed"), std::string::npos);
    EXPECT_EQ(dog.incidents(), 1);
}

TEST(Watchdog, FiresAtMostOncePerLifetime)
{
    std::vector<WorkerHeartbeat> hearts(2);
    std::atomic<int> fires{0};
    std::promise<void> first;
    auto firstFired = first.get_future();
    Watchdog dog(Watchdog::Config{}, {&hearts[0], &hearts[1]},
                 [&](int, const std::string &) {
                     if (fires.fetch_add(1) == 0)
                         first.set_value();
                 });
    hearts[0].setState(WorkerState::Crashed);
    ASSERT_EQ(firstFired.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    // A second crash must not re-fire the same watchdog — the
    // runtime re-arms by constructing a fresh one per phase.
    hearts[1].setState(WorkerState::Crashed);
    std::promise<void> settle;
    settle.get_future().wait_for(std::chrono::milliseconds(20));
    EXPECT_EQ(fires.load(), 1);
    EXPECT_EQ(dog.incidents(), 1);
}

TEST(Watchdog, QuietWhileWorkersAreHealthy)
{
    std::vector<WorkerHeartbeat> hearts(2);
    std::atomic<int> fires{0};
    {
        Watchdog dog(Watchdog::Config{}, {&hearts[0], &hearts[1]},
                     [&](int, const std::string &) { fires++; });
        // Exited is a clean drain, not an incident.
        hearts[0].setState(WorkerState::Exited);
        hearts[1].beat();
        std::promise<void> settle;
        settle.get_future().wait_for(std::chrono::milliseconds(20));
    }
    EXPECT_EQ(fires.load(), 0);
}

TEST(Watchdog, WallDeadlineIsOptInAndDetectsHangs)
{
    std::vector<WorkerHeartbeat> hearts(2);
    std::promise<std::pair<int, std::string>> incident;
    auto fired = incident.get_future();
    Watchdog::Config config;
    config.wallDeadline = true;
    config.deadlineSeconds = 0.01;
    config.pollMs = 1;
    hearts[0].setState(WorkerState::Exited);  // hung victim is [1]
    Watchdog dog(config, {&hearts[0], &hearts[1]},
                 [&incident](int worker, const std::string &reason) {
                     incident.set_value({worker, reason});
                 });
    ASSERT_EQ(fired.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    auto [worker, reason] = fired.get();
    EXPECT_EQ(worker, 1);
    EXPECT_NE(reason.find("no logical progress"), std::string::npos);
}

TEST(FaultPlan, SeededPlanIsAPureFunctionOfItsArguments)
{
    auto a = FaultInjector::randomPlan(42, 6, 100, 8);
    auto b = FaultInjector::randomPlan(42, 6, 100, 8);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i++)
        EXPECT_EQ(a[i].describe(), b[i].describe());

    auto c = FaultInjector::randomPlan(43, 6, 100, 8);
    std::string seqA, seqC;
    for (const FaultSpec &f : a)
        seqA += f.describe() + ";";
    for (const FaultSpec &f : c)
        seqC += f.describe() + ";";
    EXPECT_NE(seqA, seqC);
}

TEST(FaultPlan, ParseAcceptsWellFormedSpecs)
{
    FaultSpec spec;
    std::string error;
    ASSERT_TRUE(parseFaultSpec("crash@13,stage=2", spec, &error))
        << error;
    EXPECT_EQ(spec.kind, FaultKind::GpuCrash);
    EXPECT_EQ(spec.atStep, 13);
    EXPECT_EQ(spec.stage, 2);
    ASSERT_TRUE(parseFaultSpec("stall@0,ms=2.5", spec, &error))
        << error;
    EXPECT_EQ(spec.atStep, 0);
    EXPECT_DOUBLE_EQ(spec.durationMs, 2.5);
}

TEST(FaultPlan, ParseRejectsMalformed)
{
    // 2^32 + 1 used to wrap to a crash at step 1.
    for (const char *text :
         {"crash@4294967297", "crash@2147483648", "crash@3x",
          "crash@2.5", "crash@0x10", "crash@-1", "crash@",
          "crash@4,stage=1x", "crash@4,stage=4294967297",
          "crash@4,stage=-1"}) {
        FaultSpec spec;
        std::string error;
        EXPECT_FALSE(parseFaultSpec(text, spec, &error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(FaultPlan, InjectorFiresEachSpecExactlyOnce)
{
    FaultSpec crash;
    crash.kind = FaultKind::GpuCrash;
    crash.atStep = 5;
    FaultInjector injector({crash});
    EXPECT_TRUE(injector.due(4).empty());
    EXPECT_EQ(injector.due(5).size(), 1u);
    // A recovery rewinds the completion clock below the trigger and
    // replays through it; the fired flag prevents a refire.
    EXPECT_TRUE(injector.due(5).empty());
    EXPECT_EQ(injector.firedCount(), 1);
    EXPECT_FALSE(injector.anyPending());
}

} // namespace
} // namespace naspipe
