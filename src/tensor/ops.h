/**
 * @file
 * Deterministic tensor operations over non-owning views.
 *
 * Nothing here may reorder by data size, thread count, alignment or
 * chunking, because floating-point addition is not associative and
 * Definition 1 demands bitwise reproducibility. The evaluation-order
 * contract:
 *
 *  - Elementwise ops iterate in index order.
 *  - Every reduction (sum, dot, meanSquare, the matvec inner
 *    products) uses the fixed-shape pairwise tree of
 *    tensor/kernels/reduce.h — the combination tree is a pure
 *    function of the element count, so the result is one specific
 *    bit pattern per input, merely a *different* one from the old
 *    sequential left-to-right spec (and vectorizable, which that
 *    spec was not).
 *  - Per PrecisionMode (tensor/kernels/precision.h): Fp32 stores
 *    binary32 results exactly as computed; Fp16Rne additionally
 *    rounds every stored value and reduction result through binary16
 *    with round-to-nearest-even. Both modes are bitwise-specified;
 *    callers (the training engine) apply the storage rounding.
 *
 * All APIs take views: Tensors convert implicitly and no op ever
 * allocates or resizes — output views must be pre-sized.
 */

#ifndef NASPIPE_TENSOR_OPS_H
#define NASPIPE_TENSOR_OPS_H

#include "tensor/tensor_view.h"

namespace naspipe {
namespace ops {

/** out[i] = a[i] + b[i]; sizes must match. */
void add(ConstTensorView a, ConstTensorView b, TensorView out);

/** out[i] = a[i] - b[i]; sizes must match. */
void sub(ConstTensorView a, ConstTensorView b, TensorView out);

/** out[i] = a[i] * b[i]; sizes must match. */
void mul(ConstTensorView a, ConstTensorView b, TensorView out);

/** a[i] += alpha * b[i] (saxpy). */
void axpy(float alpha, ConstTensorView b, TensorView a);

/** a[i] *= alpha. */
void scale(TensorView a, float alpha);

/** a[i] = kernels::tanh(a[i]), the library's own tanh (kernels/tanh.h). */
void tanhInPlace(TensorView a);

/** Pairwise-tree sum (kernels::treeSum). */
float sum(ConstTensorView a);

/** Pairwise-tree dot product (kernels::treeDot). */
float dot(ConstTensorView a, ConstTensorView b);

/** Pairwise-tree mean of squared elements. */
float meanSquare(ConstTensorView a);

/** Largest absolute element (0 for empty); order-independent. */
float maxAbs(ConstTensorView a);

/** Clamp every element into [-limit, limit]. */
void clamp(TensorView a, float limit);

/**
 * out = m (rows x cols) * v (cols); rank-2 matvec, row-major. Each
 * row's inner product is a pairwise-tree dot.
 */
void matvec(ConstTensorView m, ConstTensorView v, TensorView out);

/**
 * out = m^T * v, with m rows x cols and v of length rows. Each
 * column's inner product follows the same tree as a contiguous dot
 * of that column.
 */
void matvecTransposed(ConstTensorView m, ConstTensorView v,
                      TensorView out);

/** Rank-1 outer-product accumulate: m += alpha * u v^T. */
void outerAccumulate(TensorView m, float alpha, ConstTensorView u,
                     ConstTensorView v);

} // namespace ops
} // namespace naspipe

#endif // NASPIPE_TENSOR_OPS_H
