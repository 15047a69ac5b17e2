/**
 * @file
 * Deterministic pseudo-random number generators.
 *
 * NASPipe's reproducibility guarantee (paper Definition 1) requires a
 * fully deterministic random source that behaves identically across
 * platforms and standard-library implementations, so nothing here uses
 * std::mt19937 or std::uniform_int_distribution (whose outputs are not
 * pinned down by the standard for all uses). Three generators are
 * provided:
 *
 *  - SplitMix64: seed expander, used to derive independent streams.
 *  - Xoshiro256StarStar: fast general-purpose stream generator.
 *  - Philox4x32: counter-based generator; random access by (key,
 *    counter), mirroring the counter-based RNGs used by CUDA and
 *    deterministic ML frameworks.
 */

#ifndef NASPIPE_COMMON_RNG_H
#define NASPIPE_COMMON_RNG_H

#include <array>
#include <cstddef>
#include <cstdint>

namespace naspipe {

/** SplitMix64 seed expander (Steele, Lea and Flood). */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : _state(seed) {}

    /** Produce the next 64-bit value. */
    std::uint64_t next();

  private:
    std::uint64_t _state;
};

/**
 * xoshiro256** by Blackman and Vigna: the workhorse stream generator.
 * All naspipe components derive their streams from a user seed plus a
 * component-specific tag so that adding a consumer never perturbs the
 * draws seen by existing consumers.
 */
class Xoshiro256StarStar
{
  public:
    /** Seed via SplitMix64 expansion of @p seed. */
    explicit Xoshiro256StarStar(std::uint64_t seed = 1);

    /** Next raw 64-bit draw. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) via unbiased rejection. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextInRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1) with 53 bits of entropy. */
    double nextDouble();

    /** Expose state for checkpoint tests. */
    std::array<std::uint64_t, 4> state() const { return _state; }

  private:
    std::array<std::uint64_t, 4> _state;
};

/**
 * Philox4x32-10 counter-based generator (Salmon et al., SC'11).
 *
 * Given the same key and counter the output block is identical on any
 * platform, which lets the numeric training engine draw "per (layer,
 * step)" randomness without threading generator state through the
 * scheduler — exactly the property deterministic GPU kernels rely on.
 */
class Philox4x32
{
  public:
    using Block = std::array<std::uint32_t, 4>;

    /** Construct with a 64-bit key. */
    explicit Philox4x32(std::uint64_t key) : _key(key) {}

    /** Generate the 128-bit block for @p counter. */
    Block block(std::uint64_t counter) const;

    /** First 32-bit word of the block for @p counter. */
    std::uint32_t word(std::uint64_t counter) const;

    /** Uniform float in [0,1) derived from (counter, lane). */
    float uniformFloat(std::uint64_t counter, unsigned lane = 0) const;

    /**
     * Batched uniformFloat over the @p n consecutive counters
     * counter0, counter0 + 1, ...: lane0[i] == uniformFloat(counter0
     * + i, 0) bit for bit, including where counter0 + i carries into
     * the high 32-bit word, and lane1[i] likewise for lane 1 when
     * @p lane1 is non-null. The 10 rounds run over a chunk of
     * counters at once in struct-of-arrays form — plain integer code
     * the compiler vectorizes, so the result cannot depend on it.
     */
    void fillUniform(std::uint64_t counter0, std::size_t n, float *lane0,
                     float *lane1 = nullptr) const;

    /**
     * The uniform float in [0,1) of one block word: uniformFloat(c, l)
     * is toUniformFloat(block(c)[l]), so a caller that needs several
     * lanes of one counter runs the 10 rounds once.
     */
    static float toUniformFloat(std::uint32_t word)
    {
        return static_cast<float>(word >> 8) * 0x1.0p-24f;
    }

  private:
    std::uint64_t _key;
};

/**
 * Derive a child seed from a parent seed and a stream tag. Used to
 * give every component (sampler, data loader, init, jitter model) an
 * independent deterministic stream, mirroring how NASPipe fixes the
 * seeds of PyTorch, Python, and the DataLoader separately (§4.1).
 */
std::uint64_t deriveSeed(std::uint64_t parent, std::uint64_t tag);

/** Derive a seed from a string tag (FNV-1a hash of the tag). */
std::uint64_t deriveSeed(std::uint64_t parent, const char *tag);

/**
 * FNV-1a hash of an arbitrary byte range, one byte at a time.
 * Tensor::contentHash (hence every weight fingerprint and the golden
 * grid) and deriveSeed's string tags are defined by it, and version
 * 1 and 2 checkpoint files carry it as their payload checksum, so it
 * never changes.
 */
std::uint64_t hashBytes(const void *data, std::size_t size,
                        std::uint64_t seed = 0xcbf29ce484222325ULL);

/**
 * Word-parallel payload checksum of the version 3 checkpoint formats
 * (NASP, NPRC): detection of corruption, not a MAC. Normative
 * definition, over the n bytes b[0..n):
 *
 *  - Words: w[k] is bytes 8k..8k+7 read as a little-endian 64-bit
 *    integer, for k < ceil(n / 8); the last word of a length that is
 *    not a multiple of 8 holds the n % 8 tail bytes, zero-padded.
 *  - Lanes: h[j] = 0x9e3779b97f4a7c15 * (j + 1) for j = 0..3; word k,
 *    in increasing k, updates lane k % 4 as
 *    h = rotl64((h ^ w[k]) * 0x9e3779b185ebca87, 31).
 *  - Result: x = n; then x = mix(x ^ h[j]) for j = 0..3, where mix
 *    is the SplitMix64 finalizer (z ^= z >> 30; z *= 0xbf58476d1ce4e5b9;
 *    z ^= z >> 27; z *= 0x94d049bb133111eb; z ^= z >> 31).
 *
 * The value depends neither on the host's byte order nor on the
 * buffer's alignment. Every step is a bijection of the state for a
 * fixed input and of the input for a fixed state, so changing any one
 * word — any single corrupted byte — changes the result. The rotate
 * feeds high bits back to low ones: without it the top bit of
 * (h ^ w) * odd commutes with the product, and two flips of bit 63 in
 * one lane would cancel.
 */
std::uint64_t checksumBytes(const void *data, std::size_t size);

/**
 * The payload checksum of checkpoint format @p version (NASP, NPRC):
 * hashBytes up to version 2, checksumBytes from version 3 on.
 */
inline std::uint64_t
payloadChecksum(std::uint32_t version, const void *data, std::size_t size)
{
    return version < 3 ? hashBytes(data, size)
                       : checksumBytes(data, size);
}

} // namespace naspipe

#endif // NASPIPE_COMMON_RNG_H
