/**
 * @file
 * RankedMutex / lock-order witness unit tests.
 *
 * The witness tests run in two personalities: with the witness
 * compiled in (Debug, TSan, or -DNASPIPE_LOCK_WITNESS=ON) a
 * violating acquisition must report both offending ranks and the
 * held stack; with it compiled out (plain Release) the same
 * acquisitions must be silent no-ops — the wrappers still provide
 * mutual exclusion, and that is all. lockWitnessEnabled() selects
 * the expectations, so one test binary is correct in every build
 * mode.
 *
 * Violating acquisitions here use lock()/unlock() directly, never
 * RAII guards: the static lock pass (tools/analysis/lock_pass.*)
 * tracks guard objects, and these deliberately-bad sequences are the
 * runtime witness's job, not new repo-wide findings.
 */

#include "common/lock_rank.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace naspipe {
namespace {

std::vector<std::string> &
violations()
{
    static std::vector<std::string> log;
    return log;
}

void
captureViolation(const std::string &message)
{
    violations().push_back(message);
}

class RankedMutexTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        violations().clear();
        lockdebug::setViolationHandler(&captureViolation);
    }

    void
    TearDown() override
    {
        lockdebug::setViolationHandler(nullptr);
        violations().clear();
    }
};

TEST_F(RankedMutexTest, RankNamesAndLevelsAreStable)
{
    const LockRank ranks[] = {
        LockRank::ServeClient,       LockRank::ServeFinisher,
        LockRank::ServePoolIncident, LockRank::ExecQueue,
        LockRank::ExecWorkerSignal,  LockRank::TrainContext,
        LockRank::VerifyOracle,
    };
    int previous = 0;
    for (LockRank rank : ranks) {
        EXPECT_STRNE(lockRankName(rank), "unknown");
        EXPECT_GT(static_cast<int>(rank), previous)
            << "ranks must ascend outermost to innermost";
        previous = static_cast<int>(rank);
    }
}

TEST_F(RankedMutexTest, AscendingAcquisitionIsClean)
{
    RankedMutex rmtQueueMu{LockRank::ExecQueue};
    RankedMutex rmtContextMu{LockRank::TrainContext};
    rmtQueueMu.lock();
    rmtContextMu.lock();
    if (lockWitnessEnabled()) {
        auto held = lockdebug::heldRanks();
        ASSERT_EQ(held.size(), 2u);
        EXPECT_EQ(held[0], LockRank::ExecQueue);
        EXPECT_EQ(held[1], LockRank::TrainContext);
    }
    rmtContextMu.unlock();
    rmtQueueMu.unlock();
    EXPECT_TRUE(violations().empty());
    EXPECT_TRUE(lockdebug::heldRanks().empty());
}

TEST_F(RankedMutexTest, DescendingAcquisitionTripsTheWitness)
{
    RankedMutex rmtQueueMu{LockRank::ExecQueue};
    RankedMutex rmtContextMu{LockRank::TrainContext};
    rmtContextMu.lock();
    rmtQueueMu.lock();
    rmtQueueMu.unlock();
    rmtContextMu.unlock();
    if (!lockWitnessEnabled()) {
        EXPECT_TRUE(violations().empty())
            << "witness must be compiled out in plain Release";
        return;
    }
    ASSERT_EQ(violations().size(), 1u);
    // The report must name both offending ranks and the held stack.
    EXPECT_NE(violations()[0].find("exec.queue"), std::string::npos)
        << violations()[0];
    EXPECT_NE(violations()[0].find("train.context"),
              std::string::npos)
        << violations()[0];
    EXPECT_NE(violations()[0].find("held stack"), std::string::npos)
        << violations()[0];
}

TEST_F(RankedMutexTest, EqualRankNestingTripsTheWitness)
{
    RankedMutex rmtQueueMu{LockRank::ExecQueue};
    RankedMutex rmtQueueTwinMu{LockRank::ExecQueue};
    rmtQueueMu.lock();
    rmtQueueTwinMu.lock();
    rmtQueueTwinMu.unlock();
    rmtQueueMu.unlock();
    if (lockWitnessEnabled())
        EXPECT_EQ(violations().size(), 1u);
    else
        EXPECT_TRUE(violations().empty());
}

TEST_F(RankedMutexTest, ReleaseBeforeReacquireIsClean)
{
    RankedMutex rmtQueueMu{LockRank::ExecQueue};
    RankedMutex rmtContextMu{LockRank::TrainContext};
    // Descending order is fine when the holds never overlap.
    rmtContextMu.lock();
    rmtContextMu.unlock();
    rmtQueueMu.lock();
    rmtQueueMu.unlock();
    EXPECT_TRUE(violations().empty());
    EXPECT_TRUE(lockdebug::heldRanks().empty());
}

TEST_F(RankedMutexTest, SharedAcquisitionsObeyTheSameOrder)
{
    RankedSharedMutex rmtContextMapMu{LockRank::TrainContext};
    RankedMutex rmtOracleMu{LockRank::VerifyOracle};
    // Ascending: exclusive context map, then oracle lock — clean.
    rmtContextMapMu.lock();
    rmtOracleMu.lock();
    rmtOracleMu.unlock();
    rmtContextMapMu.unlock();
    EXPECT_TRUE(violations().empty());
    // Descending with a *shared* acquisition still violates: a
    // reader blocked behind a writer participates in wait cycles.
    rmtOracleMu.lock();
    rmtContextMapMu.lock_shared();
    rmtContextMapMu.unlock_shared();
    rmtOracleMu.unlock();
    if (lockWitnessEnabled())
        EXPECT_EQ(violations().size(), 1u);
    else
        EXPECT_TRUE(violations().empty());
}

TEST_F(RankedMutexTest, FailedTryLockLeavesTheStackClean)
{
    if (!lockWitnessEnabled())
        GTEST_SKIP() << "witness compiled out";
    RankedMutex rmtQueueMu{LockRank::ExecQueue};
    rmtQueueMu.lock();
    std::thread other([&] {
        EXPECT_FALSE(rmtQueueMu.try_lock());
        EXPECT_TRUE(lockdebug::heldRanks().empty())
            << "failed try_lock must not linger on the held stack";
    });
    other.join();
    rmtQueueMu.unlock();
    EXPECT_TRUE(lockdebug::heldRanks().empty());
}

TEST_F(RankedMutexTest, MutualExclusionHoldsInEveryBuildMode)
{
    RankedMutex rmtQueueMu{LockRank::ExecQueue};
    int counter = 0;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; t++) {
        threads.emplace_back([&] {
            for (int i = 0; i < 1000; i++) {
                rmtQueueMu.lock();
                counter++;
                rmtQueueMu.unlock();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(counter, 4000);
    EXPECT_TRUE(violations().empty());
}

TEST_F(RankedMutexTest, HeldStackIsPerThread)
{
    if (!lockWitnessEnabled())
        GTEST_SKIP() << "witness compiled out";
    RankedMutex rmtQueueMu{LockRank::ExecQueue};
    rmtQueueMu.lock();
    std::thread other([] {
        EXPECT_TRUE(lockdebug::heldRanks().empty())
            << "another thread's holds must not leak over";
    });
    other.join();
    rmtQueueMu.unlock();
}

using RankedMutexDeathTest = RankedMutexTest;

TEST_F(RankedMutexDeathTest, DefaultHandlerAbortsWithBothRanks)
{
    if (!lockWitnessEnabled())
        GTEST_SKIP() << "witness compiled out";
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            naspipe::lockdebug::setViolationHandler(nullptr);
            RankedMutex rmtQueueMu{LockRank::ExecQueue};
            RankedMutex rmtContextMu{LockRank::TrainContext};
            rmtContextMu.lock();
            rmtQueueMu.lock();
        },
        "rank-order violation.*exec\\.queue.*train\\.context");
}

} // namespace
} // namespace naspipe
