#include "tensor/kernels/tanh.h"

#include <cstdint>
#include <cstring>

#include "tensor/kernels/lane_bits.h"

namespace naspipe {
namespace kernels {

namespace {

constexpr std::uint32_t kTinyBits = 0x39d1b717u;   // 0.0004f
constexpr std::uint32_t kSplitBits = 0x3f0c9f54u;  // atanh(0.5)
constexpr std::uint32_t kClampBits = 0x41180000u;  // 9.5f

constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;

/** The normative definition (tanh.h); straight-line, no branch. */
inline float
tanhLane(float x)
{
    std::uint32_t bits = bitsOf(x);
    std::uint32_t mag = bits & kMagnitude;
    // The clamp also maps inf and NaN to 9.5; NaN is restored below.
    float a = floatOf(mag > kClampBits ? kClampBits : mag);

    // e^(2a) - 1 = 2^n * (e^r - 1) + (2^n - 1), |r| <= ln2 / 2.
    float y = a + a;
    std::int32_t n = static_cast<std::int32_t>(y * kLog2e + 0.5f);
    float fn = static_cast<float>(n);
    float r = y - fn * kLn2Hi;
    r = r - fn * kLn2Lo;
    float c = r * (1.0f / 5040.0f) + (1.0f / 720.0f);
    c = r * c + (1.0f / 120.0f);
    c = r * c + (1.0f / 24.0f);
    c = r * c + (1.0f / 6.0f);
    c = r * c + 0.5f;
    float expm1r = r + (r * r) * c;
    float scale = floatOf(static_cast<std::uint32_t>(n + 127) << 23);
    float em = scale * expm1r + (scale - 1.0f);

    // q = 1 - tanh(a). Below atanh(0.5), 1 - q would cancel, so the
    // small form takes em / (em + 2) as a product instead.
    float q = 2.0f / (em + 2.0f);
    float small = (em * q) * 0.5f;
    float large = 1.0f - q;
    std::uint32_t result =
        (bits & kSignBit) |
        blend(maskOf(mag < kSplitBits), bitsOf(small), bitsOf(large));

    // tanh(x) rounds to x below 0.0004 (±0 and subnormals exactly);
    // NaN passes through with its payload.
    std::uint32_t keep = maskOf((mag < kTinyBits) | (mag > kInfBits));
    return floatOf(blend(keep, bits, result));
}

} // namespace

float
tanh(float x)
{
    return tanhLane(x);
}

void
tanhSpan(const float *in, float *out, std::size_t n)
{
    std::size_t i = 0;
    for (; i + kLaneBlock <= n; i += kLaneBlock) {
        float x[kLaneBlock];
        float t[kLaneBlock];
        std::memcpy(x, in + i, sizeof(x));
        for (std::size_t j = 0; j < kLaneBlock; j++) // must vectorize
            t[j] = tanhLane(x[j]);
        std::memcpy(out + i, t, sizeof(t));
    }
    for (; i < n; i++)
        out[i] = tanhLane(in[i]);
}

} // namespace kernels
} // namespace naspipe
