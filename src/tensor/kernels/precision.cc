#include "tensor/kernels/precision.h"

#include <cstring>

#include "tensor/kernels/lane_bits.h"

namespace naspipe {
namespace kernels {

namespace {

constexpr std::uint32_t kQuietNanBits = 0x7fc00000u;
constexpr std::uint32_t kHalfNanPayload = 0x007fe000u;
constexpr std::uint32_t kHalfMinNormalBits = 0x38800000u; // 2^-14
constexpr std::uint32_t kHalfOverflowBits = 0x47800000u;  // 65536
/** The low binary32 mantissa bits a half has no room for. */
constexpr std::uint32_t kDroppedBits = 0x1fffu;

/**
 * The storage rounding (precision.h), straight-line: every band is
 * computed and the right one is picked by mask, so the span loop has
 * no branch to keep it scalar.
 */
inline float
roundToHalfLane(float x)
{
    std::uint32_t bits = bitsOf(x);
    std::uint32_t mag = bits & kMagnitude;

    // Normal band: round the 13 dropped mantissa bits to nearest-even
    // in place. A carry into the exponent is the correct result; one
    // that reaches 65536 (and inf itself) becomes infinity.
    std::uint32_t normal =
        (mag + (kDroppedBits >> 1) + ((mag >> 13) & 1u)) &
        ~kDroppedBits;
    normal = blend(maskOf(normal >= kHalfOverflowBits), kInfBits,
                   normal);

    // Half-subnormal band: the ulp of binary32 at 0.5 is 2^-24, the
    // half subnormal step, so the IEEE add rounds |x| to it
    // (nearest-even) and the subtraction is exact.
    float sub = (floatOf(mag) + 0.5f) - 0.5f;
    std::uint32_t result =
        blend(maskOf(mag < kHalfMinNormalBits), bitsOf(sub), normal);

    // NaN: quieted, payload cut to the top 10 mantissa bits.
    result = blend(maskOf(mag > kInfBits),
                   kQuietNanBits | (mag & kHalfNanPayload), result);
    return floatOf(result | (bits & kSignBit));
}

} // namespace

const char *
precisionModeName(PrecisionMode mode)
{
    switch (mode) {
      case PrecisionMode::Fp32:
        return "fp32";
      case PrecisionMode::Fp16Rne:
        return "fp16_rne";
    }
    return "?";
}

bool
parsePrecisionMode(const std::string &text, PrecisionMode &out)
{
    if (text == "fp32") {
        out = PrecisionMode::Fp32;
        return true;
    }
    if (text == "fp16" || text == "fp16_rne") {
        out = PrecisionMode::Fp16Rne;
        return true;
    }
    return false;
}

std::uint16_t
fp32ToHalfBits(float value)
{
    std::uint32_t x;
    std::memcpy(&x, &value, sizeof(x));
    std::uint32_t sign = (x >> 16) & 0x8000u;
    std::int32_t exp =
        static_cast<std::int32_t>((x >> 23) & 0xffu) - 127;
    std::uint32_t mant = x & 0x7fffffu;

    if (exp == 128) {
        // Infinity keeps a zero mantissa; NaN is quieted with the top
        // payload bits preserved (never collapses to infinity).
        if (mant == 0)
            return static_cast<std::uint16_t>(sign | 0x7c00u);
        return static_cast<std::uint16_t>(sign | 0x7e00u |
                                          (mant >> 13));
    }
    if (exp >= 16) // magnitude >= 65536: past the largest half
        return static_cast<std::uint16_t>(sign | 0x7c00u);

    if (exp >= -14) {
        // Normal half range. Round the low 13 mantissa bits to
        // nearest-even; a carry may overflow into the exponent and,
        // at exp == 15, on into the infinity encoding — both are the
        // correct IEEE results.
        std::uint32_t half =
            (static_cast<std::uint32_t>(exp + 15) << 10) |
            (mant >> 13);
        std::uint32_t rem = mant & 0x1fffu;
        if (rem > 0x1000u || (rem == 0x1000u && (half & 1u)))
            half++;
        return static_cast<std::uint16_t>(sign | half);
    }

    // Subnormal half range (and fp32 subnormals, which are far below
    // it). The result is k * 2^-24 with k the 24-bit significand
    // (implicit bit included) shifted right and rounded to
    // nearest-even; a carry to k == 1024 lands exactly on the
    // smallest normal encoding.
    if (exp < -25 || exp == -127)
        return static_cast<std::uint16_t>(sign); // rounds to +-0
    std::uint32_t m = mant | 0x800000u;
    int shift = -(exp + 1); // in [14, 24]
    std::uint32_t k = m >> shift;
    std::uint32_t rem = m & ((1u << shift) - 1u);
    std::uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (k & 1u)))
        k++;
    return static_cast<std::uint16_t>(sign | k);
}

float
halfBitsToFp32(std::uint16_t bits)
{
    std::uint32_t sign = static_cast<std::uint32_t>(bits & 0x8000u)
                         << 16;
    std::uint32_t exp = (bits >> 10) & 0x1fu;
    std::uint32_t mant = bits & 0x3ffu;
    std::uint32_t x;
    if (exp == 31) {
        x = sign | 0x7f800000u | (mant << 13);
    } else if (exp == 0) {
        if (mant == 0) {
            x = sign;
        } else {
            // Subnormal: mant * 2^-24, exact in binary32 (the divisor
            // is a power of two).
            float v = static_cast<float>(mant) / 16777216.0f;
            return (bits & 0x8000u) ? -v : v;
        }
    } else {
        x = sign | ((exp - 15 + 127) << 23) | (mant << 13);
    }
    float out;
    std::memcpy(&out, &x, sizeof(out));
    return out;
}

float
roundToHalf(float value)
{
    return roundToHalfLane(value);
}

void
quantizeInPlace(PrecisionMode mode, float *a, std::size_t n)
{
    if (mode == PrecisionMode::Fp32)
        return;
    std::size_t i = 0;
    for (; i + kLaneBlock <= n; i += kLaneBlock) {
        float x[kLaneBlock];
        std::memcpy(x, a + i, sizeof(x));
        for (std::size_t j = 0; j < kLaneBlock; j++) // must vectorize
            x[j] = roundToHalfLane(x[j]);
        std::memcpy(a + i, x, sizeof(x));
    }
    for (; i < n; i++)
        a[i] = roundToHalfLane(a[i]);
}

} // namespace kernels
} // namespace naspipe
