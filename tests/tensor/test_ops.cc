/**
 * @file
 * Deterministic tensor-op tests.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/ops.h"

namespace naspipe {
namespace {

Tensor
vec(std::initializer_list<float> values)
{
    return Tensor(std::vector<float>(values));
}

TEST(Ops, Elementwise)
{
    Tensor a = vec({1, 2, 3});
    Tensor b = vec({4, 5, 6});
    Tensor out(3);
    ops::add(a, b, out);
    EXPECT_EQ(out[0], 5.0f);
    ops::sub(b, a, out);
    EXPECT_EQ(out[2], 3.0f);
    ops::mul(a, b, out);
    EXPECT_EQ(out[1], 10.0f);
}

TEST(Ops, AxpyAndScale)
{
    Tensor a = vec({1, 1});
    Tensor b = vec({2, 4});
    ops::axpy(0.5f, b, a);
    EXPECT_EQ(a[0], 2.0f);
    EXPECT_EQ(a[1], 3.0f);
    ops::scale(a, 2.0f);
    EXPECT_EQ(a[1], 6.0f);
}

TEST(Ops, TanhInPlace)
{
    Tensor a = vec({0.0f, 100.0f, -100.0f});
    ops::tanhInPlace(a);
    EXPECT_EQ(a[0], 0.0f);
    EXPECT_EQ(a[1], 1.0f);
    EXPECT_EQ(a[2], -1.0f);
}

TEST(Ops, SequentialSumIsLeftToRight)
{
    // With floats, (big + tiny) + -big != big + (tiny + -big); pin
    // the left-to-right order.
    Tensor t = vec({1e8f, 1.0f, -1e8f});
    // (1e8 + 1) == 1e8 in fp32 (the 1 is absorbed), then -1e8 => 0.
    EXPECT_EQ(ops::sum(t), 0.0f);
    Tensor u = vec({-1e8f, 1e8f, 1.0f});
    // (-1e8 + 1e8) == 0, then + 1 => exactly 1.
    EXPECT_EQ(ops::sum(u), 1.0f);
}

TEST(Ops, DotAndMeanSquare)
{
    Tensor a = vec({1, 2, 3});
    Tensor b = vec({4, 5, 6});
    EXPECT_EQ(ops::dot(a, b), 32.0f);
    EXPECT_NEAR(ops::meanSquare(a), 14.0f / 3.0f, 1e-6);
}

TEST(Ops, MaxAbsAndClamp)
{
    Tensor a = vec({-3, 1, 2});
    EXPECT_EQ(ops::maxAbs(a), 3.0f);
    ops::clamp(a, 1.5f);
    EXPECT_EQ(a[0], -1.5f);
    EXPECT_EQ(a[1], 1.0f);
    EXPECT_EQ(a[2], 1.5f);
}

TEST(Ops, Matvec)
{
    Tensor m(2, 3);
    // [[1 2 3], [4 5 6]]
    for (int i = 0; i < 6; i++)
        m.data()[static_cast<std::size_t>(i)] =
            static_cast<float>(i + 1);
    Tensor v = vec({1, 1, 1});
    Tensor out(2);
    ops::matvec(m, v, out);
    EXPECT_EQ(out[0], 6.0f);
    EXPECT_EQ(out[1], 15.0f);
}

TEST(Ops, MatvecTransposed)
{
    Tensor m(2, 3);
    for (int i = 0; i < 6; i++)
        m.data()[static_cast<std::size_t>(i)] =
            static_cast<float>(i + 1);
    Tensor v = vec({1, 1});
    Tensor out(3);
    ops::matvecTransposed(m, v, out);
    EXPECT_EQ(out[0], 5.0f);
    EXPECT_EQ(out[2], 9.0f);
}

TEST(Ops, OuterAccumulate)
{
    Tensor m(2, 2);
    Tensor u = vec({1, 2});
    Tensor v = vec({3, 4});
    ops::outerAccumulate(m, 1.0f, u, v);
    EXPECT_EQ(m.at(0, 0), 3.0f);
    EXPECT_EQ(m.at(1, 1), 8.0f);
    ops::outerAccumulate(m, -1.0f, u, v);
    EXPECT_EQ(m.at(1, 0), 0.0f);
}

TEST(Ops, ShapeMismatchPanics)
{
    Tensor a(2), b(3), out(2);
    EXPECT_THROW(ops::add(a, b, out), std::logic_error);
    EXPECT_THROW(ops::dot(a, b), std::logic_error);
    Tensor m(2, 3);
    Tensor v(2);
    EXPECT_THROW(ops::matvec(m, v, out), std::logic_error);
}

} // namespace
} // namespace naspipe
