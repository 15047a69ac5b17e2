#include "tensor/ops.h"

#include <cmath>
#include <vector>

#include "common/logging.h"
#include "tensor/kernels/reduce.h"
#include "tensor/kernels/tanh.h"

namespace naspipe {
namespace ops {

namespace {

void
checkSameSize(ConstTensorView a, ConstTensorView b)
{
    NASPIPE_ASSERT(a.size() == b.size(), "tensor size mismatch: ",
                   a.size(), " vs ", b.size());
}

} // namespace

void
add(ConstTensorView a, ConstTensorView b, TensorView out)
{
    checkSameSize(a, b);
    checkSameSize(a, out);
    for (std::size_t i = 0; i < a.size(); i++)
        out[i] = a[i] + b[i];
}

void
sub(ConstTensorView a, ConstTensorView b, TensorView out)
{
    checkSameSize(a, b);
    checkSameSize(a, out);
    for (std::size_t i = 0; i < a.size(); i++)
        out[i] = a[i] - b[i];
}

void
mul(ConstTensorView a, ConstTensorView b, TensorView out)
{
    checkSameSize(a, b);
    checkSameSize(a, out);
    for (std::size_t i = 0; i < a.size(); i++)
        out[i] = a[i] * b[i];
}

void
axpy(float alpha, ConstTensorView b, TensorView a)
{
    checkSameSize(a, b);
    for (std::size_t i = 0; i < a.size(); i++)
        a[i] += alpha * b[i];
}

void
scale(TensorView a, float alpha)
{
    for (std::size_t i = 0; i < a.size(); i++)
        a[i] *= alpha;
}

void
tanhInPlace(TensorView a)
{
    kernels::tanhSpan(a.data(), a.data(), a.size());
}

float
sum(ConstTensorView a)
{
    return kernels::treeSum(a.data(), a.size());
}

float
dot(ConstTensorView a, ConstTensorView b)
{
    checkSameSize(a, b);
    return kernels::treeDot(a.data(), b.data(), a.size());
}

float
meanSquare(ConstTensorView a)
{
    NASPIPE_ASSERT(!a.empty(), "meanSquare of empty tensor");
    return kernels::treeMeanSquare(a.data(), a.size());
}

float
maxAbs(ConstTensorView a)
{
    float best = 0.0f;
    for (std::size_t i = 0; i < a.size(); i++) {
        float v = std::fabs(a[i]);
        if (v > best)
            best = v;
    }
    return best;
}

void
clamp(TensorView a, float limit)
{
    NASPIPE_ASSERT(limit >= 0.0f, "clamp limit must be non-negative");
    for (std::size_t i = 0; i < a.size(); i++) {
        if (a[i] > limit)
            a[i] = limit;
        else if (a[i] < -limit)
            a[i] = -limit;
    }
}

void
matvec(ConstTensorView m, ConstTensorView v, TensorView out)
{
    NASPIPE_ASSERT(m.cols() == v.size(), "matvec shape mismatch");
    NASPIPE_ASSERT(out.size() == m.rows(), "matvec output mismatch");
    for (std::size_t r = 0; r < m.rows(); r++)
        out[r] = kernels::treeDot(m.data() + r * m.cols(), v.data(),
                                  m.cols());
}

void
matvecTransposed(ConstTensorView m, ConstTensorView v, TensorView out)
{
    NASPIPE_ASSERT(m.rows() == v.size(),
                   "matvecTransposed shape mismatch");
    NASPIPE_ASSERT(out.size() == m.cols(),
                   "matvecTransposed output mismatch");
    // Gather each (strided) column so its inner product runs the
    // exact same tree as a contiguous dot of that column.
    std::vector<float> column(m.rows());
    for (std::size_t c = 0; c < m.cols(); c++) {
        for (std::size_t r = 0; r < m.rows(); r++)
            column[r] = m.at(r, c);
        out[c] = kernels::treeDot(column.data(), v.data(), m.rows());
    }
}

void
outerAccumulate(TensorView m, float alpha, ConstTensorView u,
                ConstTensorView v)
{
    NASPIPE_ASSERT(m.rows() == u.size() && m.cols() == v.size(),
                   "outerAccumulate shape mismatch");
    for (std::size_t r = 0; r < m.rows(); r++) {
        for (std::size_t c = 0; c < m.cols(); c++)
            m.at(r, c) += alpha * u[r] * v[c];
    }
}

} // namespace ops
} // namespace naspipe
