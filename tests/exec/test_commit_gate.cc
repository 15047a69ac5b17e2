/**
 * @file
 * CommitGate unit tests: the causal-chain protocol in isolation.
 */

#include <gtest/gtest.h>

#include <thread>

#include "exec/commit_gate.h"

namespace naspipe {
namespace {

TEST(CommitGate, FirstActivatorIsImmediatelyReadable)
{
    CommitGate gate;
    CommitGate::Claim first = gate.registerActivation(100, 3);
    CommitGate::Claim second = gate.registerActivation(100, 5);
    EXPECT_TRUE(gate.readable(first));
    EXPECT_FALSE(gate.readable(second));
}

TEST(CommitGate, CommitUnlocksTheNextActivator)
{
    CommitGate gate;
    CommitGate::Claim c0 = gate.registerActivation(100, 0);
    CommitGate::Claim c1 = gate.registerActivation(100, 1);
    CommitGate::Claim c2 = gate.registerActivation(100, 2);
    EXPECT_FALSE(gate.readable(c1));
    gate.commit(c0);
    EXPECT_TRUE(gate.readable(c1));
    EXPECT_FALSE(gate.readable(c2));
    gate.commit(c1);
    EXPECT_TRUE(gate.readable(c2));
}

TEST(CommitGate, LayersAreIndependent)
{
    CommitGate gate;
    gate.registerActivation(1, 0);
    CommitGate::Claim l1 = gate.registerActivation(1, 1);
    CommitGate::Claim l2 = gate.registerActivation(2, 1);
    EXPECT_EQ(l1.rank, 1u);
    EXPECT_EQ(l2.rank, 0u);
    // SN1 leads layer 2's chain even though it trails layer 1's.
    EXPECT_TRUE(gate.readable(l2));
    EXPECT_FALSE(gate.readable(l1));
}

TEST(CommitGate, RegistrationHandsOutTheResolvedClaim)
{
    CommitGate gate;
    CommitGate::Claim early = gate.registerActivation(7, 10);
    CommitGate::Claim late = gate.registerActivation(7, 20);
    EXPECT_EQ(early.rank, 0u);
    EXPECT_EQ(late.rank, 1u);
    EXPECT_EQ(late.layerKey, 7u);
    EXPECT_EQ(late.subnet, 20);
    CommitGate::Claim looked = gate.resolve(7, 20);
    EXPECT_EQ(looked.chain, late.chain);
    EXPECT_EQ(looked.rank, late.rank);
    EXPECT_TRUE(gate.readable(early));
    EXPECT_FALSE(gate.readable(late));
    gate.commit(early);
    EXPECT_TRUE(gate.readable(late));
}

TEST(CommitGate, CountsCommitsAndPerLayerProgress)
{
    CommitGate gate;
    CommitGate::Claim a0 = gate.registerActivation(1, 0);
    CommitGate::Claim a1 = gate.registerActivation(1, 1);
    CommitGate::Claim b0 = gate.registerActivation(2, 0);
    EXPECT_EQ(gate.commits(), 0u);
    EXPECT_EQ(gate.committedOf(1), 0u);
    gate.commit(a0);
    gate.commit(b0);
    gate.commit(a1);
    EXPECT_EQ(gate.commits(), 3u);
    EXPECT_EQ(gate.committedOf(1), 2u);
    EXPECT_EQ(gate.committedOf(2), 1u);
    EXPECT_EQ(gate.committedOf(999), 0u);  // unregistered layer
}

TEST(CommitGate, RegistrationDropsTheCommittedPrefix)
{
    CommitGate gate;
    CommitGate::Claim c0 = gate.registerActivation(4, 0);
    CommitGate::Claim c1 = gate.registerActivation(4, 1);
    gate.registerActivation(4, 2);
    EXPECT_EQ(gate.retainedOf(4), 3u);
    gate.commit(c0);
    gate.commit(c1);
    // Trimming happens at the next registration, which still ranks
    // behind every earlier activator.
    EXPECT_EQ(gate.retainedOf(4), 3u);
    CommitGate::Claim c3 = gate.registerActivation(4, 3);
    EXPECT_EQ(c3.rank, 3u);
    EXPECT_EQ(gate.retainedOf(4), 2u);
    EXPECT_EQ(gate.resolve(4, 2).rank, 2u);
    EXPECT_EQ(gate.resolve(4, 3).rank, 3u);
    EXPECT_EQ(gate.retainedOf(999), 0u);  // unregistered layer
}

TEST(CommitGate, CommitOnAnotherThreadMakesTheClaimReadable)
{
    CommitGate gate;
    CommitGate::Claim early = gate.registerActivation(1, 0);
    CommitGate::Claim late = gate.registerActivation(1, 1);
    std::thread committer([&gate, early] { gate.commit(early); });
    while (!gate.readable(late))  // must turn true once SN0 commits
        std::this_thread::yield();
    EXPECT_EQ(gate.committedOf(1), 1u);
    committer.join();
}

} // namespace
} // namespace naspipe
