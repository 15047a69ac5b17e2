/**
 * @file
 * The fp16 storage rounding (tensor/kernels/precision.h): the
 * branch-free roundToHalf and quantizeInPlace against the normative
 * encode/decode pair, halfBitsToFp32(fp32ToHalfBits(x)), bit for bit.
 * The inputs cover every half pattern, a strided sweep of all 2^32
 * bit patterns, every rounding boundary of the normal band, the
 * subnormal tie points, the IEEE specials, and the span form's
 * lengths and alignments.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cstdint>
#include <cstring>
#include <vector>

#include "tensor/kernels/precision.h"

namespace naspipe {
namespace {

std::uint32_t
bitsOf(float value)
{
    std::uint32_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

float
floatOf(std::uint32_t bits)
{
    float value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

/** The specification: decode(encode(x)). */
std::uint32_t
specBits(std::uint32_t x)
{
    return bitsOf(kernels::halfBitsToFp32(
        kernels::fp32ToHalfBits(floatOf(x))));
}

/**
 * Round @p inputs (bit patterns) through the scalar form and the span
 * form; the number of results that differ from the spec. The first
 * few mismatches are reported with their input.
 */
std::size_t
countMismatches(const std::vector<std::uint32_t> &inputs)
{
    std::vector<float> in(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); i++)
        in[i] = floatOf(inputs[i]);
    std::vector<float> out = in;
    kernels::quantizeInPlace(kernels::PrecisionMode::Fp16Rne, out.data(),
                             out.size());

    std::size_t bad = 0;
    for (std::size_t i = 0; i < inputs.size(); i++) {
        const std::uint32_t want = specBits(inputs[i]);
        const std::uint32_t scalar = bitsOf(kernels::roundToHalf(in[i]));
        const std::uint32_t span = bitsOf(out[i]);
        if (scalar == want && span == want)
            continue;
        if (bad++ < 8) {
            ADD_FAILURE() << std::hex << "x 0x" << inputs[i]
                          << ": spec 0x" << want << ", scalar 0x"
                          << scalar << ", span 0x" << span;
        }
    }
    return bad;
}

TEST(HalfRounding, EveryHalfPatternMatchesSpec)
{
    std::vector<std::uint32_t> inputs;
    for (std::uint32_t h = 0; h < 0x10000; h++) {
        inputs.push_back(bitsOf(
            kernels::halfBitsToFp32(static_cast<std::uint16_t>(h))));
    }
    EXPECT_EQ(countMismatches(inputs), 0u);
}

TEST(HalfRounding, StridedSweepOfAllBitPatternsMatchesSpec)
{
    // Stride 251 (prime) visits ~17.1M patterns, every residue of the
    // 13 dropped mantissa bits many times over. Run in chunks so the
    // buffers stay small.
    constexpr std::uint64_t kStride = 251;
    constexpr std::size_t kChunk = 1u << 16;
    std::vector<std::uint32_t> inputs;
    inputs.reserve(kChunk);
    std::size_t bad = 0;
    for (std::uint64_t x = 0; x < (std::uint64_t{1} << 32); x += kStride) {
        inputs.push_back(static_cast<std::uint32_t>(x));
        if (inputs.size() == kChunk) {
            bad += countMismatches(inputs);
            inputs.clear();
        }
    }
    bad += countMismatches(inputs);
    EXPECT_EQ(bad, 0u);
}

TEST(HalfRounding, TiesAndNearTiesAtEveryPrefixMatchSpec)
{
    // Every (sign, exponent, top-10 mantissa) prefix, each with the
    // dropped 13 bits at zero, one, just below / at / just above the
    // tie, and all ones: every rounding decision of the normal band,
    // both parities, every carry into the exponent and into infinity.
    const std::uint32_t lows[] = {0x0u,    0x1u,    0xfffu,
                                  0x1000u, 0x1001u, 0x1fffu};
    std::vector<std::uint32_t> inputs;
    inputs.reserve(std::size_t{1} << 20);
    std::size_t bad = 0;
    for (std::uint32_t prefix = 0; prefix < (1u << 19); prefix++) {
        for (std::uint32_t low : lows)
            inputs.push_back((prefix << 13) | low);
        if (inputs.size() >= (std::size_t{1} << 20)) {
            bad += countMismatches(inputs);
            inputs.clear();
        }
    }
    bad += countMismatches(inputs);
    EXPECT_EQ(bad, 0u);
}

TEST(HalfRounding, SubnormalTiePointsMatchSpec)
{
    // Below 2^-14 a half keeps k * 2^-24: a binary32 with unbiased
    // exponent e keeps its top (e + 24) significand bits, so the
    // dropped field is `shift` = -(e + 1) bits wide (14..24), plus the
    // exponents that round to zero or up to 2^-24. At each shift: the
    // tie, one below and one above, for even and odd kept parts.
    std::vector<std::uint32_t> inputs;
    for (int e = -27; e <= -14; e++) {
        const std::uint32_t biased = static_cast<std::uint32_t>(e + 127);
        const int shift = -(e + 1);
        for (std::uint32_t top : {0u, 1u, 2u, 3u, 0x155u, 0x3ffu}) {
            for (std::int64_t delta : {-1, 0, 1}) {
                std::uint64_t m = std::uint64_t{0x800000} |
                                  (std::uint64_t{top} << 12);
                if (shift >= 1 && shift <= 24) {
                    const std::uint64_t keep = ~((std::uint64_t{1}
                                                  << shift) - 1);
                    m = (m & keep) |
                        (std::uint64_t{1} << (shift - 1));
                }
                m = static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(m) + delta);
                const std::uint32_t mant =
                    static_cast<std::uint32_t>(m) & 0x7fffffu;
                for (std::uint32_t sign : {0u, 0x80000000u})
                    inputs.push_back(sign | (biased << 23) | mant);
            }
        }
    }
    // Every half subnormal tie k * 2^-24 + 2^-25, and fp32 subnormals.
    for (std::uint32_t k = 0; k < 1024; k++) {
        const float tie = (static_cast<float>(k) + 0.5f) * 0x1.0p-24f;
        inputs.push_back(bitsOf(tie));
        inputs.push_back(bitsOf(tie) - 1);
        inputs.push_back(bitsOf(tie) + 1);
    }
    for (std::uint32_t x : {0x1u, 0x2u, 0x3ffu, 0x400000u, 0x7fffffu})
        inputs.push_back(x);
    EXPECT_EQ(countMismatches(inputs), 0u);
}

TEST(HalfRounding, SpecialsMatchSpec)
{
    const std::uint32_t specials[] = {
        0x00000000u,                   // +0
        0x7f800000u,                   // +inf
        0x7f800001u,                   // smallest signaling NaN
        0x7f801fffu,                   // payload only in dropped bits
        0x7f802000u,                   // lowest kept payload bit
        0x7fbfe000u,                   // signaling, full kept payload
        0x7fc00000u,                   // default quiet NaN
        0x7fffffffu,                   // all payload bits
        bitsOf(FLT_MAX),
        bitsOf(FLT_MIN),
        bitsOf(65504.0f),              // largest half
        bitsOf(65519.996f),            // just below the inf tie
        bitsOf(65520.0f),              // the inf tie
        bitsOf(65536.0f),
        0x38800000u,                   // 2^-14, smallest half normal
        0x387fffffu,                   // just below it
        0x33800000u,                   // 2^-24, smallest half subnormal
        0x33000000u,                   // 2^-25, tie to zero
        0x33000001u,                   // just above it
    };
    std::vector<std::uint32_t> inputs;
    for (std::uint32_t x : specials) {
        inputs.push_back(x);
        inputs.push_back(x | 0x80000000u);
    }
    EXPECT_EQ(countMismatches(inputs), 0u);

    // Spot values the spec pins in words: signed zero, infinity, a
    // quiet NaN with the kept payload.
    EXPECT_EQ(bitsOf(kernels::roundToHalf(-0.0f)), 0x80000000u);
    EXPECT_EQ(bitsOf(kernels::roundToHalf(65520.0f)), 0x7f800000u);
    EXPECT_EQ(bitsOf(kernels::roundToHalf(floatOf(0xff802001u))),
              0xffc02000u);
}

TEST(HalfRounding, SpanMatchesScalarAtEveryLengthAndAlignment)
{
    // Inputs that exercise every band; guards around the span check
    // that nothing outside [0, n) is written.
    std::vector<float> source;
    for (std::uint32_t i = 0; i < 70; i++) {
        source.push_back(floatOf(0x3f800000u + i * 0x1000u + 0x800u) *
                         ((i & 1) ? -1.0f : 1.0f));
        if (i % 7 == 0)
            source.back() = floatOf(0x33000000u + i);
        if (i % 11 == 0)
            source.back() = 70000.0f;
        if (i % 13 == 0)
            source.back() = floatOf(0x7fa01234u);
    }
    const float guard = floatOf(0x7f7fabcdu);
    for (std::size_t n = 1; n <= 67; n++) {
        for (std::size_t off = 0; off < 4; off++) {
            std::vector<float> a(n + 8, guard);
            std::memcpy(a.data() + off, source.data(), n * sizeof(float));
            kernels::quantizeInPlace(kernels::PrecisionMode::Fp16Rne,
                                     a.data() + off, n);
            for (std::size_t i = 0; i < a.size(); i++) {
                const bool inside = i >= off && i < off + n;
                const std::uint32_t want =
                    inside ? bitsOf(kernels::roundToHalf(source[i - off]))
                           : bitsOf(guard);
                ASSERT_EQ(bitsOf(a[i]), want)
                    << "n " << n << " offset " << off << " at " << i;
            }
        }
    }
}

TEST(HalfRounding, Fp32ModeIsTheIdentity)
{
    std::vector<float> a = {0.1f, -3.0e-6f, 70000.0f, floatOf(0x7fa01234u)};
    const std::vector<float> before = a;
    kernels::quantizeInPlace(kernels::PrecisionMode::Fp32, a.data(),
                             a.size());
    for (std::size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(bitsOf(a[i]), bitsOf(before[i]));
        EXPECT_EQ(bitsOf(kernels::quantize(kernels::PrecisionMode::Fp32,
                                           before[i])),
                  bitsOf(before[i]));
    }
}

} // namespace
} // namespace naspipe
