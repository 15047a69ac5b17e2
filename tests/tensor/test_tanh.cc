/**
 * @file
 * The library's tanh kernel (tensor/kernels/tanh.h): accuracy against
 * the host libm, the IEEE edge cases, the span form's bitwise
 * agreement with the scalar form, and a pinned table of input →
 * output bit patterns. The table is what catches a compiler or flag
 * change (an FMA contraction, a reassociation) that moves the bits
 * without going through the golden grid.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/kernels/tanh.h"

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

/** Distance in ulps, on the ordered integer line of floats. */
std::int64_t
ulpDistance(float a, float b)
{
    auto ordered = [](float v) {
        auto bits = static_cast<std::int64_t>(bitsOf(v));
        return bits & 0x80000000 ? 0x80000000 - bits : bits;
    };
    std::int64_t d = ordered(a) - ordered(b);
    return d < 0 ? -d : d;
}

/** The [-12, 12] sweep in steps of 1e-4, as every sweep test uses it. */
constexpr long kSweepSteps = 120000;

float
sweepPoint(long k)
{
    return static_cast<float>(static_cast<double>(k) * 1e-4);
}

TEST(Tanh, WithinThreeUlpOfLibmOnTheSweep)
{
    // 3 ulp is the measured maximum against glibc 2.36 (at -0.544,
    // just below the switch to 1 - q).
    std::int64_t worst = 0;
    float worstAt = 0.0f;
    for (long k = -kSweepSteps; k <= kSweepSteps; k++) {
        float x = sweepPoint(k);
        std::int64_t d = ulpDistance(kernels::tanh(x), std::tanh(x));
        if (d > worst) {
            worst = d;
            worstAt = x;
        }
    }
    EXPECT_LE(worst, 3) << "at x = " << worstAt;
}

TEST(Tanh, OddSymmetryIsBitwise)
{
    for (long k = 0; k <= kSweepSteps; k++) {
        float x = sweepPoint(k);
        ASSERT_EQ(bitsOf(kernels::tanh(-x)),
                  bitsOf(kernels::tanh(x)) ^ 0x80000000u)
            << "x = " << x;
    }
    float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(bitsOf(kernels::tanh(-inf)),
              bitsOf(kernels::tanh(inf)) ^ 0x80000000u);
}

TEST(Tanh, MonotoneNonDecreasing)
{
    // Along the sweep...
    float prev = -1.0f;
    for (long k = -kSweepSteps; k <= kSweepSteps; k++) {
        float x = sweepPoint(k);
        float t = kernels::tanh(x);
        ASSERT_GE(t, prev) << "x = " << x;
        prev = t;
    }
    // ...and over every adjacent pair of floats in the 1 - q form,
    // from atanh(0.5) up to past saturation.
    float split = floatOf(0x3f0c9f54u);
    prev = kernels::tanh(split);
    for (std::uint32_t b = bitsOf(split) + 1; b <= bitsOf(12.0f); b++) {
        float t = kernels::tanh(floatOf(b));
        ASSERT_GE(t, prev) << "x = " << floatOf(b);
        prev = t;
    }
}

TEST(Tanh, SaturatesToExactlyOne)
{
    float inf = std::numeric_limits<float>::infinity();
    float max = std::numeric_limits<float>::max();
    for (float x : {9.0109138f, 9.5f, 10.0f, 100.0f, 1e30f, max, inf}) {
        EXPECT_EQ(kernels::tanh(x), 1.0f) << "x = " << x;
        EXPECT_EQ(kernels::tanh(-x), -1.0f) << "x = " << x;
    }
    // The last input below 1, where glibc saturates too.
    EXPECT_LT(kernels::tanh(9.0109129f), 1.0f);
}

TEST(Tanh, SignedZeroKeepsItsSign)
{
    EXPECT_EQ(bitsOf(kernels::tanh(0.0f)), 0x00000000u);
    EXPECT_EQ(bitsOf(kernels::tanh(-0.0f)), 0x80000000u);
}

TEST(Tanh, SubnormalsAndTinyInputsAreTheirOwnTanh)
{
    float denormMin = std::numeric_limits<float>::denorm_min();
    float minNormal = std::numeric_limits<float>::min();
    for (float x : {denormMin, 3.0f * denormMin, floatOf(0x007fffffu),
                    minNormal, 1e-20f, 3e-4f}) {
        EXPECT_EQ(bitsOf(kernels::tanh(x)), bitsOf(x)) << "x = " << x;
        EXPECT_EQ(bitsOf(kernels::tanh(-x)), bitsOf(-x)) << "x = " << x;
    }
}

TEST(Tanh, NanInNanOut)
{
    float qnan = std::numeric_limits<float>::quiet_NaN();
    EXPECT_TRUE(std::isnan(kernels::tanh(qnan)));
    EXPECT_TRUE(std::isnan(kernels::tanh(-qnan)));
    // The payload passes through untouched.
    float payload = floatOf(0x7fc01234u);
    EXPECT_EQ(bitsOf(kernels::tanh(payload)), 0x7fc01234u);
    EXPECT_EQ(bitsOf(kernels::tanh(-payload)), 0xffc01234u);
}

TEST(Tanh, SpanEqualsScalarBitForBit)
{
    float inf = std::numeric_limits<float>::infinity();
    std::vector<float> pool;
    for (long k = -130; k <= 130; k++)
        pool.push_back(static_cast<float>(k) * 0.0917f);
    for (float x : {0.0f, -0.0f, 3e-4f, 0.5493061f, 9.5f, inf, -inf,
                    std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::denorm_min()})
        pool.push_back(x);

    std::vector<float> out(pool.size() + 4);
    for (std::size_t offset = 0; offset < 4; offset++) {
        for (std::size_t n = 1; n <= 67; n++) {
            for (std::size_t start = 0; start + n <= pool.size();
                 start += 61) {
                const float *in = pool.data() + start;
                kernels::tanhSpan(in, out.data() + offset, n);
                for (std::size_t i = 0; i < n; i++) {
                    ASSERT_EQ(bitsOf(out[offset + i]),
                              bitsOf(kernels::tanh(in[i])))
                        << "n " << n << " offset " << offset << " i "
                        << i;
                }
            }
        }
    }

    // In place.
    std::vector<float> inPlace(pool);
    kernels::tanhSpan(inPlace.data(), inPlace.data(), inPlace.size());
    for (std::size_t i = 0; i < pool.size(); i++)
        ASSERT_EQ(bitsOf(inPlace[i]), bitsOf(kernels::tanh(pool[i])));
}

TEST(Tanh, PinnedBitPatterns)
{
    // input bits → output bits; one or more per regime and boundary.
    struct Pin {
        std::uint32_t in;
        std::uint32_t out;
    };
    const Pin pins[] = {
        {0x399d4952u, 0x399d4952u},  // 3e-4: below 0.0004, x itself
        {0x39d1b717u, 0x39d1b716u},  // 0.0004: first computed input
        {0x3a83126fu, 0x3a83126du},  // 0.001
        {0x3dcccccdu, 0x3dcc1ebdu},  // 0.1
        {0xbe800000u, 0xbe7acbf6u},  // -0.25
        {0x3f000000u, 0x3eec9a9fu},  // 0.5
        {0x3f0c9f53u, 0x3effffffu},  // last input of the small form
        {0x3f0c9f54u, 0x3f000000u},  // atanh(0.5): first 1 - q input
        {0xbf400000u, 0xbf22991fu},  // -0.75
        {0x3f800000u, 0x3f42f7d6u},  // 1
        {0x3fc00000u, 0x3f67b7ccu},  // 1.5
        {0xc0000000u, 0xbf76ca83u},  // -2
        {0x40400000u, 0x3f7ebbe9u},  // 3
        {0x40900000u, 0x3f7fefd4u},  // 4.5
        {0xc0c00000u, 0xbf7fff32u},  // -6
        {0x41000000u, 0x3f7ffffcu},  // 8
        {0x41100000u, 0x3f7fffffu},  // 9
        {0x41102cb4u, 0x3f800000u},  // 9.0109138: saturated
    };
    for (const Pin &pin : pins) {
        EXPECT_EQ(bitsOf(kernels::tanh(floatOf(pin.in))), pin.out)
            << std::hex << "in 0x" << pin.in;
    }
}

} // namespace
} // namespace naspipe
