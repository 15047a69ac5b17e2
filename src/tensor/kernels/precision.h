/**
 * @file
 * Precision modes and the explicit fp16 rounding kernels.
 *
 * The library computes in IEEE-754 binary32 throughout; PrecisionMode
 * selects how values are *stored* between operations:
 *
 *  - Fp32: storage is binary32, conversions are the identity. The
 *    historical behavior, bit for bit.
 *  - Fp16Rne: every value written to a storage tensor — initial
 *    parameters, parameters after each optimizer step, activations
 *    after each layer, loss gradients, and scalar reduction results —
 *    is converted binary32 → binary16 → binary32 with
 *    round-to-nearest-even before it lands. Arithmetic inside a
 *    kernel (including reduction trees) stays binary32, the
 *    tensor-core discipline: half storage, single-precision
 *    accumulate.
 *
 * The storage rounding is defined, normatively, by the encode/decode
 * pair below: roundToHalf(x) == halfBitsToFp32(fp32ToHalfBits(x)),
 * bit for bit, on all 2^32 inputs. The pair is explicit integer bit
 * manipulation — no compiler half-float extension, no hardware F16C —
 * so results are bitwise-specified per mode on every platform
 * (Definition 1 extended to reduced precision). Subnormals, signed
 * zero, infinities and NaN all follow IEEE-754: values of magnitude
 * in (0, 2^-24) round to the nearest representable half subnormal or
 * to zero; magnitudes >= 65520 round to infinity; NaN stays NaN
 * (quieted, payload truncated).
 *
 * The hot path never calls the pair. roundToHalf and quantizeInPlace
 * compute the same bits straight-line on mag = |x|'s bit pattern,
 * every select an integer mask blend:
 *
 *  - mag >= 2^-14 (the half normal band): the 13 dropped mantissa
 *    bits are rounded to nearest-even by one integer add and mask;
 *    a result >= 65536 becomes infinity.
 *  - mag < 2^-14 (half subnormals and below): (|x| + 0.5f) - 0.5f,
 *    one IEEE add/sub pair. The binary32 ulp at 0.5 is 2^-24, the
 *    half subnormal step, so round-to-nearest-even in the add is the
 *    half rounding and the subtraction is exact. This needs IEEE
 *    default rounding, no flush-to-zero, and the library's
 *    -ffp-contract=off.
 *  - NaN: 0x7fc00000 | (mag & 0x007fe000).
 *  - The sign bit of x is OR-ed back at the end.
 *
 * Without a branch the span form vectorizes (tools/check_vectorized.sh
 * guards it), and it equals the scalar form at every length and
 * alignment.
 */

#ifndef NASPIPE_TENSOR_KERNELS_PRECISION_H
#define NASPIPE_TENSOR_KERNELS_PRECISION_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace naspipe {
namespace kernels {

/** Storage precision of the numeric trajectory. */
enum class PrecisionMode {
    Fp32,
    Fp16Rne,
};

/** Printable name ("fp32" / "fp16_rne"). */
const char *precisionModeName(PrecisionMode mode);

/**
 * Parse "fp32" / "fp16" / "fp16_rne" (case-sensitive). Returns false
 * on anything else, leaving @p out untouched.
 */
bool parsePrecisionMode(const std::string &text, PrecisionMode &out);

/**
 * binary32 → binary16 bit pattern, round-to-nearest-even: the
 * specification of the storage rounding (with halfBitsToFp32), kept
 * scalar and branchy for readability.
 */
std::uint16_t fp32ToHalfBits(float value);

/** binary16 bit pattern → the exactly-representable binary32. */
float halfBitsToFp32(std::uint16_t bits);

/**
 * Round-trip through binary16: the fp16 storage rounding, equal to
 * halfBitsToFp32(fp32ToHalfBits(value)) bit for bit.
 */
float roundToHalf(float value);

/** Scalar storage rounding under @p mode (identity for Fp32). */
inline float
quantize(PrecisionMode mode, float value)
{
    return mode == PrecisionMode::Fp32 ? value : roundToHalf(value);
}

/**
 * Elementwise storage rounding of a[0..n) under @p mode: a[i] =
 * quantize(mode, a[i]), bit for bit, at every length and alignment.
 */
void quantizeInPlace(PrecisionMode mode, float *a, std::size_t n);

} // namespace kernels
} // namespace naspipe

#endif // NASPIPE_TENSOR_KERNELS_PRECISION_H
