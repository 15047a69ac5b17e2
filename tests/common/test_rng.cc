/**
 * @file
 * Deterministic RNG and byte-hash tests: fixed outputs, stream
 * independence, distribution sanity, checksum corruption detection.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace naspipe {
namespace {

TEST(SplitMix64, KnownSequence)
{
    // Reference values from the SplitMix64 reference implementation
    // with seed 1234567.
    SplitMix64 sm(1234567);
    EXPECT_EQ(sm.next(), 6457827717110365317ULL);
    EXPECT_EQ(sm.next(), 3203168211198807973ULL);
    EXPECT_EQ(sm.next(), 9817491932198370423ULL);
}

TEST(SplitMix64, DifferentSeedsDiffer)
{
    SplitMix64 a(1), b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro, DeterministicAcrossInstances)
{
    Xoshiro256StarStar a(42), b(42);
    for (int i = 0; i < 1000; i++)
        ASSERT_EQ(a.next(), b.next()) << "diverged at draw " << i;
}

TEST(Xoshiro, SeedSensitivity)
{
    Xoshiro256StarStar a(42), b(43);
    EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro, NextBelowRespectsBound)
{
    Xoshiro256StarStar rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; i++)
            ASSERT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Xoshiro, NextBelowCoversRange)
{
    Xoshiro256StarStar rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; i++)
        seen.insert(rng.nextBelow(6));
    EXPECT_EQ(seen.size(), 6u);
}

TEST(Xoshiro, NextBelowRoughlyUniform)
{
    Xoshiro256StarStar rng(99);
    std::map<std::uint64_t, int> counts;
    const int draws = 60000;
    for (int i = 0; i < draws; i++)
        counts[rng.nextBelow(6)]++;
    for (const auto &[value, count] : counts) {
        EXPECT_NEAR(count, draws / 6, draws / 60)
            << "value " << value;
    }
}

TEST(Xoshiro, NextInRangeInclusive)
{
    Xoshiro256StarStar rng(5);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; i++) {
        std::int64_t v = rng.nextInRange(-2, 2);
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 2);
        sawLo |= v == -2;
        sawHi |= v == 2;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Xoshiro, DoublesInUnitInterval)
{
    Xoshiro256StarStar rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; i++) {
        double v = rng.nextDouble();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Philox, CounterDeterminism)
{
    Philox4x32 p(777);
    auto block1 = p.block(42);
    auto block2 = p.block(42);
    EXPECT_EQ(block1, block2);
}

TEST(Philox, RandomAccessIndependentOfOrder)
{
    Philox4x32 p(777);
    auto late = p.block(1000);
    auto early = p.block(1);
    Philox4x32 q(777);
    EXPECT_EQ(q.block(1), early);
    EXPECT_EQ(q.block(1000), late);
}

TEST(Philox, KeySensitivity)
{
    Philox4x32 a(1), b(2);
    EXPECT_NE(a.block(0), b.block(0));
}

TEST(Philox, CounterSensitivity)
{
    Philox4x32 p(9);
    EXPECT_NE(p.block(0), p.block(1));
}

TEST(Philox, UniformFloatRange)
{
    Philox4x32 p(31337);
    double sum = 0.0;
    for (std::uint64_t i = 0; i < 10000; i++) {
        float v = p.uniformFloat(i);
        ASSERT_GE(v, 0.0f);
        ASSERT_LT(v, 1.0f);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

/** Bits of @p value, so +0/-0 and every NaN payload count. */
std::uint32_t
bitsOf(float value)
{
    std::uint32_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

/**
 * fillUniform over n counters from counter0 must equal per-counter
 * uniformFloat bit for bit in both lanes, and a lane-0-only call must
 * equal lane 0 of the two-lane call.
 */
void
expectFillMatches(const Philox4x32 &p, std::uint64_t counter0,
                  std::size_t n)
{
    // Sentinels past n catch a fill that writes beyond its range.
    constexpr float kSentinel = -7.0f;
    std::vector<float> lane0(n + 3, kSentinel), lane1(n + 3, kSentinel);
    std::vector<float> only0(n + 3, kSentinel);
    p.fillUniform(counter0, n, lane0.data(), lane1.data());
    p.fillUniform(counter0, n, only0.data());
    for (std::size_t i = 0; i < n; i++) {
        ASSERT_EQ(bitsOf(lane0[i]), bitsOf(p.uniformFloat(counter0 + i, 0)))
            << "lane 0, counter0 " << counter0 << " + " << i;
        ASSERT_EQ(bitsOf(lane1[i]), bitsOf(p.uniformFloat(counter0 + i, 1)))
            << "lane 1, counter0 " << counter0 << " + " << i;
        ASSERT_EQ(bitsOf(only0[i]), bitsOf(lane0[i]))
            << "lane-0-only call, counter0 " << counter0 << " + " << i;
    }
    for (std::size_t i = n; i < n + 3; i++) {
        ASSERT_EQ(lane0[i], kSentinel) << "lane 0 written past n=" << n;
        ASSERT_EQ(lane1[i], kSentinel) << "lane 1 written past n=" << n;
        ASSERT_EQ(only0[i], kSentinel) << "lane 0 written past n=" << n;
    }
}

TEST(PhiloxFill, MatchesUniformFloatBitForBit)
{
    const std::uint64_t keys[] = {0, 0x9e3779b97f4a7c15ULL,
                                  deriveSeed(99, "grad-noise")};
    const std::size_t sizes[] = {0, 1, 63, 64, 65, 200};
    const std::uint64_t starts[] = {
        0,
        12345,
        (1ULL << 32) - 100,  // every size above straddles 2^32...
        (1ULL << 32) - 1,    // ...from one below the carry...
        1ULL << 32,          // ...and from right on it
        ~0ULL - 64,          // and the 64-bit wrap
    };
    for (std::uint64_t key : keys) {
        Philox4x32 p(key);
        for (std::uint64_t counter0 : starts) {
            for (std::size_t n : sizes) {
                SCOPED_TRACE(testing::Message()
                             << "key " << key << " n " << n);
                expectFillMatches(p, counter0, n);
            }
        }
    }
}

TEST(PhiloxFill, CarryReachesTheHighWord)
{
    // Counters 2^32 - 1 and 2^32 differ only through the carry; a
    // fill that dropped it would repeat counter 0's block.
    Philox4x32 p(5);
    float lane0[2];
    p.fillUniform((1ULL << 32) - 1, 2, lane0);
    EXPECT_EQ(bitsOf(lane0[1]), bitsOf(p.uniformFloat(1ULL << 32)));
    EXPECT_NE(bitsOf(lane0[1]), bitsOf(p.uniformFloat(0)));
}

TEST(DeriveSeed, TagSeparation)
{
    std::uint64_t base = 7;
    EXPECT_NE(deriveSeed(base, "sampler"), deriveSeed(base, "data"));
    EXPECT_NE(deriveSeed(base, std::uint64_t{0}),
              deriveSeed(base, std::uint64_t{1}));
    // Same inputs, same output.
    EXPECT_EQ(deriveSeed(base, "sampler"), deriveSeed(base, "sampler"));
}

TEST(DeriveSeed, ParentSeparation)
{
    EXPECT_NE(deriveSeed(1, "x"), deriveSeed(2, "x"));
}

/** A non-periodic byte pattern for the pinned checksum vectors. */
std::vector<unsigned char>
pattern(std::size_t n)
{
    std::vector<unsigned char> bytes(n);
    for (std::size_t i = 0; i < n; i++)
        bytes[i] = static_cast<unsigned char>((i * 131) ^ (i >> 7));
    return bytes;
}

TEST(HashBytes, PinnedVector)
{
    // Tensor::contentHash, every weight fingerprint and the golden
    // grid are defined through hashBytes: it must never drift.
    std::vector<unsigned char> bytes = pattern(33);
    EXPECT_EQ(hashBytes(bytes.data(), bytes.size()),
              0x0f9ca4e626cdb6bfULL);
    EXPECT_EQ(hashBytes("naspipe", 7), 0xe6a565e84790dda5ULL);
}

TEST(ChecksumBytes, PinnedVectors)
{
    // Computed from the normative definition in common/rng.h by an
    // independent (big-integer) implementation. Lengths cover the
    // empty input, a lone tail, one word, one block +- 1 and a
    // multi-block input with a 3-byte tail.
    const std::pair<std::size_t, std::uint64_t> pinned[] = {
        {0, 0xaaffdc6c8cf7420bULL},    {1, 0x8b371c92df601b06ULL},
        {7, 0xdfde992d285ecf73ULL},    {8, 0x89078082e32d6e2bULL},
        {31, 0xd110403034c4a718ULL},   {32, 0x0c73d378aa39290cULL},
        {33, 0xc82bfdaf37f40e2aULL},   {4099, 0x12ed0b81be3ea653ULL},
        {1 << 20, 0xe57374908f49a6c1ULL},
    };
    for (const auto &[size, expected] : pinned) {
        std::vector<unsigned char> bytes = pattern(size);
        EXPECT_EQ(checksumBytes(bytes.data(), bytes.size()), expected)
            << size << " bytes";
    }
}

TEST(ChecksumBytes, EveryBitFlipChangesTheResult)
{
    std::vector<unsigned char> bytes = pattern(4099);
    const std::uint64_t clean = checksumBytes(bytes.data(), bytes.size());
    for (std::size_t i = 0; i < bytes.size(); i++) {
        for (int bit = 0; bit < 8; bit++) {
            bytes[i] ^= static_cast<unsigned char>(1u << bit);
            ASSERT_NE(checksumBytes(bytes.data(), bytes.size()), clean)
                << "byte " << i << " bit " << bit;
            bytes[i] ^= static_cast<unsigned char>(1u << bit);
        }
    }
}

TEST(ChecksumBytes, IndependentOfAlignment)
{
    std::vector<unsigned char> bytes = pattern(4099);
    const std::uint64_t aligned =
        checksumBytes(bytes.data(), bytes.size());
    std::vector<unsigned char> shifted(bytes.size() + 8);
    for (std::size_t offset = 0; offset < 8; offset++) {
        std::memcpy(shifted.data() + offset, bytes.data(), bytes.size());
        EXPECT_EQ(checksumBytes(shifted.data() + offset, bytes.size()),
                  aligned)
            << "offset " << offset;
    }
}

} // namespace
} // namespace naspipe
