/**
 * @file
 * The library's own tanh: the one transcendental on the numeric path.
 *
 * Every trained bit passes through tanh, so a host math library's
 * tanhf would make the bits a property of that libm (glibc, musl and
 * Apple's libm round differently, and may change between releases).
 * This kernel is defined here instead, from IEEE-754 binary32 basic
 * operations (+, -, *, /), exact bit manipulation and exact
 * float <-> int conversions, evaluated in a fixed order. Compiled
 * under the library's -ffp-contract=off, its result is a function of
 * the input bits alone: the same on every IEEE-754 host, at every
 * optimization level, vectorized or scalar.
 *
 * Definition, normatively, on a = min(|x|, 9.5):
 *
 *  - |x| < 0.0004 (including ±0 and subnormals), and NaN: x itself.
 *  - Otherwise em = e^(2a) - 1 = 2^n * m + (2^n - 1), where
 *    n = trunc(2a * log2(e) + 0.5), r = 2a - n*ln2 by a two-constant
 *    Cody-Waite reduction (|r| <= ln2 / 2), and m = e^r - 1 is the
 *    degree-7 Taylor polynomial r + r^2 * (1/2 + r * (1/6 + ...)).
 *    With q = 2 / (em + 2) = 1 - tanh(a), the result is
 *    (em * q) * 0.5 below a = atanh(0.5) and 1 - q from there on
 *    (where 1 - q cannot cancel).
 *  - The sign of x is OR-ed back in, so tanh(-x) == -tanh(x) bit for
 *    bit, and ±inf saturate to exactly ±1.
 *
 * Measured against glibc 2.36 over [-12, 12]: at most 3 ulp on a
 * 1e-4 grid and 4 ulp over every float; non-decreasing along that
 * grid, and over every pair of adjacent floats from atanh(0.5) up.
 * It saturates to exactly 1 at the same input as glibc (9.0109...).
 * Below atanh(0.5) it is not monotone between every pair of adjacent
 * floats (1-ulp dips).
 *
 * The Eigen-style clamped 13/6 rational (generic_fast_tanh_float) is
 * cheaper but is not used: near saturation its rounding noise
 * exceeds the function's slope, so it decreases at 22,632 points of
 * the same grid (from x = 3.64 on).
 *
 * Selections (clamp, regime, pass-through) are done on the bit
 * pattern with unsigned compares and masks, never with float
 * compare-selects: under the default -ftrapping-math a float select
 * keeps the span loop scalar.
 */

#ifndef NASPIPE_TENSOR_KERNELS_TANH_H
#define NASPIPE_TENSOR_KERNELS_TANH_H

#include <cstddef>

namespace naspipe {
namespace kernels {

/** tanh(x) as specified in this file's header. */
float tanh(float x);

/**
 * out[i] = tanh(in[i]) for i in [0, n), bit for bit equal to the
 * scalar form at every length and offset. @p out may be @p in
 * (in-place); partial overlap is not allowed.
 */
void tanhSpan(const float *in, float *out, std::size_t n);

} // namespace kernels
} // namespace naspipe

#endif // NASPIPE_TENSOR_KERNELS_TANH_H
