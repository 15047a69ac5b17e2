#include "common/rng.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.h"

namespace naspipe {

namespace {

inline std::uint64_t
rotl64(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/** SplitMix64's output function: a bijection of 64-bit words. */
inline std::uint64_t
splitMixFinalize(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

std::uint64_t
SplitMix64::next()
{
    return splitMixFinalize(_state += 0x9e3779b97f4a7c15ULL);
}

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed)
{
    SplitMix64 sm(seed);
    for (auto &word : _state)
        word = sm.next();
    // An all-zero state would be absorbing; SplitMix64 cannot produce
    // four consecutive zeros, but guard anyway for safety.
    if (_state[0] == 0 && _state[1] == 0 && _state[2] == 0 &&
        _state[3] == 0) {
        _state[0] = 0x9e3779b97f4a7c15ULL;
    }
}

std::uint64_t
Xoshiro256StarStar::next()
{
    const std::uint64_t result = rotl64(_state[1] * 5, 7) * 9;
    const std::uint64_t t = _state[1] << 17;

    _state[2] ^= _state[0];
    _state[3] ^= _state[1];
    _state[1] ^= _state[2];
    _state[0] ^= _state[3];
    _state[2] ^= t;
    _state[3] = rotl64(_state[3], 45);

    return result;
}

std::uint64_t
Xoshiro256StarStar::nextBelow(std::uint64_t bound)
{
    NASPIPE_ASSERT(bound > 0, "nextBelow bound must be positive");
    // Lemire-style rejection: draw until the value falls inside the
    // largest multiple of bound, guaranteeing a uniform result.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Xoshiro256StarStar::nextInRange(std::int64_t lo, std::int64_t hi)
{
    NASPIPE_ASSERT(lo <= hi, "nextInRange requires lo <= hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextBelow(span));
}

double
Xoshiro256StarStar::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

namespace {

constexpr std::uint32_t kPhiloxM0 = 0xD2511F53u;
constexpr std::uint32_t kPhiloxM1 = 0xCD9E8D57u;
constexpr std::uint32_t kPhiloxW0 = 0x9E3779B9u;
constexpr std::uint32_t kPhiloxW1 = 0xBB67AE85u;

inline void
philoxRound(std::array<std::uint32_t, 4> &ctr, std::uint32_t k0,
            std::uint32_t k1)
{
    std::uint64_t p0 = static_cast<std::uint64_t>(kPhiloxM0) * ctr[0];
    std::uint64_t p1 = static_cast<std::uint64_t>(kPhiloxM1) * ctr[2];
    std::uint32_t hi0 = static_cast<std::uint32_t>(p0 >> 32);
    std::uint32_t lo0 = static_cast<std::uint32_t>(p0);
    std::uint32_t hi1 = static_cast<std::uint32_t>(p1 >> 32);
    std::uint32_t lo1 = static_cast<std::uint32_t>(p1);
    ctr = {hi1 ^ ctr[1] ^ k0, lo1, hi0 ^ ctr[3] ^ k1, lo0};
}

} // namespace

Philox4x32::Block
Philox4x32::block(std::uint64_t counter) const
{
    Block ctr = {
        static_cast<std::uint32_t>(counter),
        static_cast<std::uint32_t>(counter >> 32),
        0u,
        0u,
    };
    std::uint32_t k0 = static_cast<std::uint32_t>(_key);
    std::uint32_t k1 = static_cast<std::uint32_t>(_key >> 32);
    for (int round = 0; round < 10; round++) {
        philoxRound(ctr, k0, k1);
        k0 += kPhiloxW0;
        k1 += kPhiloxW1;
    }
    return ctr;
}

std::uint32_t
Philox4x32::word(std::uint64_t counter) const
{
    return block(counter)[0];
}

float
Philox4x32::uniformFloat(std::uint64_t counter, unsigned lane) const
{
    NASPIPE_ASSERT(lane < 4, "Philox lane out of range");
    return toUniformFloat(block(counter)[lane]);
}

void
Philox4x32::fillUniform(std::uint64_t counter0, std::size_t n,
                        float *lane0, float *lane1) const
{
    // A full chunk is always computed (surplus counters are dropped),
    // so every loop below has a constant trip count.
    constexpr std::size_t kChunk = 64;
    const std::uint32_t key0 = static_cast<std::uint32_t>(_key);
    const std::uint32_t key1 = static_cast<std::uint32_t>(_key >> 32);
    for (std::size_t start = 0; start < n; start += kChunk) {
        std::uint32_t x0[kChunk], x1[kChunk], x2[kChunk], x3[kChunk];
        for (std::size_t i = 0; i < kChunk; i++) {
            std::uint64_t counter = counter0 + start + i;
            x0[i] = static_cast<std::uint32_t>(counter);
            x1[i] = static_cast<std::uint32_t>(counter >> 32);
            x2[i] = 0u;
            x3[i] = 0u;
        }
        std::uint32_t k0 = key0;
        std::uint32_t k1 = key1;
        for (int round = 0; round < 10; round++) {
            // philoxRound, one lane of the chunk per i.
            for (std::size_t i = 0; i < kChunk; i++) {  // must vectorize
                std::uint64_t p0 =
                    static_cast<std::uint64_t>(kPhiloxM0) * x0[i];
                std::uint64_t p1 =
                    static_cast<std::uint64_t>(kPhiloxM1) * x2[i];
                x0[i] = static_cast<std::uint32_t>(p1 >> 32) ^ x1[i] ^ k0;
                x1[i] = static_cast<std::uint32_t>(p1);
                x2[i] = static_cast<std::uint32_t>(p0 >> 32) ^ x3[i] ^ k1;
                x3[i] = static_cast<std::uint32_t>(p0);
            }
            k0 += kPhiloxW0;
            k1 += kPhiloxW1;
        }
        std::size_t count = n - start < kChunk ? n - start : kChunk;
        for (std::size_t i = 0; i < count; i++)
            lane0[start + i] = toUniformFloat(x0[i]);
        if (lane1 != nullptr) {
            for (std::size_t i = 0; i < count; i++)
                lane1[start + i] = toUniformFloat(x1[i]);
        }
    }
}

std::uint64_t
deriveSeed(std::uint64_t parent, std::uint64_t tag)
{
    SplitMix64 sm(parent ^ (tag * 0x9e3779b97f4a7c15ULL + 0x2545f491ULL));
    // Burn one draw so tag=0 does not collapse to the parent stream.
    sm.next();
    return sm.next();
}

std::uint64_t
deriveSeed(std::uint64_t parent, const char *tag)
{
    return deriveSeed(parent, hashBytes(tag, std::strlen(tag)));
}

std::uint64_t
hashBytes(const void *data, std::size_t size, std::uint64_t seed)
{
    std::uint64_t hash = seed;
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; i++) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

namespace {

/** The 8 bytes at @p p as a little-endian word. */
inline std::uint64_t
loadLittleEndian(const unsigned char *p)
{
    std::uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    if constexpr (std::endian::native == std::endian::big)
        w = __builtin_bswap64(w);
    return w;
}

inline std::uint64_t
checksumLane(std::uint64_t h, std::uint64_t w)
{
    return rotl64((h ^ w) * 0x9e3779b185ebca87ULL, 31);
}

} // namespace

std::uint64_t
checksumBytes(const void *data, std::size_t size)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h[4];
    for (std::uint64_t j = 0; j < 4; j++)
        h[j] = 0x9e3779b97f4a7c15ULL * (j + 1);
    // Four independent multiply chains: the loop runs at the
    // multiplier's throughput, not its latency.
    std::size_t i = 0;
    for (; size - i >= 32; i += 32) {
        h[0] = checksumLane(h[0], loadLittleEndian(p + i));
        h[1] = checksumLane(h[1], loadLittleEndian(p + i + 8));
        h[2] = checksumLane(h[2], loadLittleEndian(p + i + 16));
        h[3] = checksumLane(h[3], loadLittleEndian(p + i + 24));
    }
    // Under 32 bytes left: whole words, then the padded tail word,
    // continuing the lane rotation.
    for (std::size_t j = 0; i < size; i += 8, j++) {
        unsigned char word[8] = {};
        std::memcpy(word, p + i, std::min<std::size_t>(8, size - i));
        h[j] = checksumLane(h[j], loadLittleEndian(word));
    }
    std::uint64_t x = size;
    for (std::uint64_t lane : h)
        x = splitMixFinalize(x ^ lane);
    return x;
}

} // namespace naspipe
