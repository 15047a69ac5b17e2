/**
 * @file
 * CommitGate property tests: adversarial concurrent schedules.
 *
 * Each trial builds a random set of causal chains (layers shared by
 * random subsets of subnets) and registers them on the main thread,
 * the way the coordinator does, keeping the claims registration
 * hands out. It then releases one thread per subnet in randomized
 * order with randomized injected sleeps. Threads poll readable() on
 * their claims and commit after a deliberate delay between "becoming
 * readable" and "committing" — the widest possible window for
 * ordering bugs. The property: whatever the OS does, every layer's
 * observed access history is exactly its registered chain in
 * ascending sequence order, i.e. sequentially equivalent.
 *
 * Two single-threaded properties pin the registration contract:
 * registration claims equal resolve()'s, and a layer retains no more
 * activators than there are subnets in flight.
 *
 * Runs under `ctest -L exec`, which CI exercises under
 * ThreadSanitizer (-DNASPIPE_TSAN=ON).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/commit_gate.h"

namespace naspipe {
namespace {

struct Trial {
    int subnets = 0;
    /// chain per layer key: ascending subnet IDs
    std::map<std::uint64_t, std::vector<SubnetId>> chains;
};

Trial
makeTrial(std::uint64_t seed, int subnets, int layers)
{
    Xoshiro256StarStar rng(seed);
    Trial trial;
    trial.subnets = subnets;
    for (int l = 0; l < layers; l++) {
        auto key = static_cast<std::uint64_t>(l);
        for (SubnetId sn = 0; sn < subnets; sn++) {
            // ~60% membership; ascending by construction.
            if (rng.nextBelow(10) < 6)
                trial.chains[key].push_back(sn);
        }
        if (trial.chains[key].empty())
            trial.chains[key].push_back(
                static_cast<SubnetId>(rng.nextBelow(
                    static_cast<std::uint64_t>(subnets))));
    }
    return trial;
}

/**
 * Register @p trial's chains on @p gate; returns each subnet's claims
 * in ascending layer-key order.
 */
std::vector<std::vector<CommitGate::Claim>>
registerTrial(const Trial &trial, CommitGate &gate)
{
    std::vector<std::vector<CommitGate::Claim>> claimsOf(
        static_cast<std::size_t>(trial.subnets));
    for (const auto &[key, chain] : trial.chains) {
        for (SubnetId sn : chain)
            claimsOf[static_cast<std::size_t>(sn)].push_back(
                gate.registerActivation(key, sn));
    }
    return claimsOf;
}

/** Spin until @p claim is readable (what a deferring worker does). */
void
pollReadable(const CommitGate &gate, const CommitGate::Claim &claim)
{
    while (!gate.readable(claim))
        std::this_thread::yield();
}

/** Run one trial; returns the per-layer observed access order. */
std::map<std::uint64_t, std::vector<SubnetId>>
runTrial(const Trial &trial, std::uint64_t scheduleSeed)
{
    CommitGate gate;
    const std::vector<std::vector<CommitGate::Claim>> claimsOf =
        registerTrial(trial, gate);

    std::mutex observedMu;
    std::map<std::uint64_t, std::vector<SubnetId>> observed;

    // Per-thread deterministic sleep schedule; the *thread start
    // order* is itself shuffled so early subnets often start last.
    std::vector<SubnetId> startOrder;
    for (SubnetId sn = 0; sn < trial.subnets; sn++)
        startOrder.push_back(sn);
    Xoshiro256StarStar shuffleRng(scheduleSeed);
    for (std::size_t i = startOrder.size(); i > 1; i--) {
        std::swap(startOrder[i - 1],
                  startOrder[static_cast<std::size_t>(
                      shuffleRng.nextBelow(i))]);
    }

    std::vector<std::thread> threads;
    for (SubnetId sn : startOrder) {
        threads.emplace_back([&claimsOf, &gate, &observedMu, &observed,
                              scheduleSeed, sn] {
            Xoshiro256StarStar rng(deriveSeed(
                scheduleSeed, "sleep") ^
                static_cast<std::uint64_t>(sn));
            for (const CommitGate::Claim &claim :
                 claimsOf[static_cast<std::size_t>(sn)]) {
                pollReadable(gate, claim);
                {
                    std::lock_guard<std::mutex> lock(observedMu);
                    observed[claim.layerKey].push_back(sn);
                }
                // Widen the readable->commit window: the next
                // activator must still not slip in between.
                if (rng.nextBelow(3) == 0) {
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(
                            rng.nextBelow(200)));
                }
                gate.commit(claim);
            }
        });
        // Occasionally stagger thread creation itself.
        if (shuffleRng.nextBelow(4) == 0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(50));
        }
    }
    for (auto &t : threads)
        t.join();
    return observed;
}

TEST(CommitGateProperties, RandomSchedulesObserveSequentialOrder)
{
    for (std::uint64_t seed = 1; seed <= 6; seed++) {
        Trial trial = makeTrial(seed, 12, 10);
        auto observed = runTrial(trial, deriveSeed(seed, "sched"));
        ASSERT_EQ(observed.size(), trial.chains.size())
            << "seed " << seed;
        for (const auto &[key, chain] : trial.chains) {
            EXPECT_EQ(observed[key], chain)
                << "layer " << key << " out of causal order (seed "
                << seed << ")";
        }
    }
}

TEST(CommitGateProperties, EveryCommitIsCounted)
{
    Trial trial = makeTrial(42, 8, 6);
    std::size_t expected = 0;
    for (const auto &[key, chain] : trial.chains)
        expected += chain.size();

    CommitGate gate;
    const std::vector<std::vector<CommitGate::Claim>> claimsOf =
        registerTrial(trial, gate);
    std::vector<std::thread> threads;
    for (SubnetId sn = 0; sn < trial.subnets; sn++) {
        threads.emplace_back([&claimsOf, &gate, sn] {
            for (const CommitGate::Claim &claim :
                 claimsOf[static_cast<std::size_t>(sn)]) {
                pollReadable(gate, claim);
                gate.commit(claim);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(gate.commits(), expected);
    for (const auto &[key, chain] : trial.chains)
        EXPECT_EQ(gate.committedOf(key), chain.size());
}

TEST(CommitGateProperties, RegistrationClaimsEqualResolve)
{
    for (std::uint64_t seed = 1; seed <= 6; seed++) {
        Trial trial = makeTrial(seed, 32, 10);
        CommitGate gate;
        Xoshiro256StarStar rng(deriveSeed(seed, "commits"));
        // Per layer, every registration claim in rank order, and how
        // many of them have committed.
        std::map<std::uint64_t, std::vector<CommitGate::Claim>> claims;
        std::map<std::uint64_t, std::size_t> committed;
        for (SubnetId sn = 0; sn < trial.subnets; sn++) {
            // Coordinator order: one subnet at a time, ascending.
            for (const auto &[key, chain] : trial.chains) {
                if (std::binary_search(chain.begin(), chain.end(), sn))
                    claims[key].push_back(
                        gate.registerActivation(key, sn));
            }
            // Commit some layers' next claim, so registration trims.
            for (const auto &[key, layer] : claims) {
                std::size_t &done = committed[key];
                if (done < layer.size() && rng.nextBelow(2) == 0) {
                    ASSERT_TRUE(gate.readable(layer[done]));
                    gate.commit(layer[done++]);
                }
            }
            for (const auto &[key, layer] : claims) {
                for (std::size_t r = committed[key]; r < layer.size();
                     r++) {
                    CommitGate::Claim looked =
                        gate.resolve(key, layer[r].subnet);
                    EXPECT_EQ(looked.chain, layer[r].chain);
                    EXPECT_EQ(looked.rank, layer[r].rank);
                    EXPECT_EQ(looked.rank, r);
                    EXPECT_EQ(looked.layerKey, key);
                    EXPECT_EQ(looked.subnet, layer[r].subnet);
                }
            }
        }
    }
}

TEST(CommitGateProperties, RetainedActivatorsStayBoundedByTheWindow)
{
    constexpr SubnetId kSubnets = 4096;
    constexpr std::size_t kWindow = 6;
    constexpr std::uint64_t kLayers = 12;
    Xoshiro256StarStar rng(7);
    CommitGate gate;
    std::vector<std::size_t> registered(kLayers, 0);
    // Uncommitted claims of each in-flight subnet.
    std::vector<std::vector<CommitGate::Claim>> inflight;
    std::size_t maxRetained = 0;
    SubnetId next = 0;
    while (next < kSubnets || !inflight.empty()) {
        bool admit = next < kSubnets && inflight.size() < kWindow &&
                     (inflight.empty() || rng.nextBelow(2) == 0);
        if (admit) {
            std::vector<CommitGate::Claim> claims;
            for (std::uint64_t l = 0; l < kLayers; l++) {
                if (rng.nextBelow(2) == 0) {
                    claims.push_back(gate.registerActivation(l, next));
                    registered[l]++;
                }
            }
            for (std::uint64_t l = 0; l < kLayers; l++) {
                ASSERT_LE(gate.retainedOf(l), kWindow)
                    << "layer " << l << " after SN" << next;
                maxRetained = std::max(maxRetained, gate.retainedOf(l));
            }
            inflight.push_back(std::move(claims));
            next++;
            continue;
        }
        // Progress a random in-flight subnet: commit some of its
        // readable claims, in any layer order; retire it when none
        // is left.
        std::size_t pick = static_cast<std::size_t>(
            rng.nextBelow(inflight.size()));
        std::vector<CommitGate::Claim> &claims = inflight[pick];
        for (std::size_t i = 0; i < claims.size();) {
            if (gate.readable(claims[i]) && rng.nextBelow(4) != 0) {
                gate.commit(claims[i]);
                claims.erase(claims.begin() +
                             static_cast<std::ptrdiff_t>(i));
            } else {
                i++;
            }
        }
        if (claims.empty())
            inflight.erase(inflight.begin() +
                           static_cast<std::ptrdiff_t>(pick));
    }
    EXPECT_GT(maxRetained, 1u) << "the window was never exercised";
    for (std::uint64_t l = 0; l < kLayers; l++)
        EXPECT_EQ(gate.committedOf(l), registered[l]);
}

} // namespace
} // namespace naspipe
