/**
 * @file
 * Bit-pattern helpers shared by the branch-free lane kernels (tanh,
 * fp16 storage rounding). Internal to src/tensor/kernels/.
 *
 * A lane kernel computes every case of its definition and picks the
 * result with an integer mask blend, never with a float
 * compare-select: under the default -ftrapping-math GCC will not
 * if-convert a float select, which would keep the span loop scalar.
 */

#ifndef NASPIPE_TENSOR_KERNELS_LANE_BITS_H
#define NASPIPE_TENSOR_KERNELS_LANE_BITS_H

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace naspipe {
namespace kernels {

constexpr std::uint32_t kSignBit = 0x80000000u;
constexpr std::uint32_t kMagnitude = 0x7fffffffu;
constexpr std::uint32_t kInfBits = 0x7f800000u;

inline std::uint32_t
bitsOf(float value)
{
    std::uint32_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

inline float
floatOf(std::uint32_t bits)
{
    float value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

/** All-ones when @p cond holds, else zero: the select mask. */
inline std::uint32_t
maskOf(bool cond)
{
    return 0u - static_cast<std::uint32_t>(cond);
}

/** mask ? a : b, on bit patterns. */
inline std::uint32_t
blend(std::uint32_t mask, std::uint32_t a, std::uint32_t b)
{
    return (a & mask) | (b & ~mask);
}

/**
 * Span block width of the lane kernels. A block is copied into a local
 * array before any output is written, so the block loop has a fixed
 * trip count and no aliasing question: GCC vectorizes it at -O2 as
 * well as -O3.
 */
constexpr std::size_t kLaneBlock = 8;

} // namespace kernels
} // namespace naspipe

#endif // NASPIPE_TENSOR_KERNELS_LANE_BITS_H
