/**
 * @file
 * Surrogate layer math tests: gradient correctness and determinism.
 */

#include <gtest/gtest.h>

#include <array>
#include <cfloat>
#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "tensor/kernels/precision.h"
#include "tensor/layer_math.h"

namespace naspipe {
namespace {

LayerParams
makeParams(std::uint64_t seed = 5)
{
    LayerParams p;
    initLayerParams(p, seed, 2, 3);
    return p;
}

Tensor
makeInput(float base = 0.3f)
{
    Tensor in(kLayerDim);
    for (std::size_t i = 0; i < kLayerDim; i++)
        in[i] = base + 0.01f * static_cast<float>(i % 7);
    return in;
}

TEST(LayerMath, InitIsDeterministic)
{
    LayerParams a = makeParams();
    LayerParams b = makeParams();
    EXPECT_TRUE(a.bitwiseEqual(b));
    EXPECT_EQ(a.contentHash(), b.contentHash());
}

TEST(LayerMath, InitVariesWithIdentity)
{
    LayerParams a, b, c;
    initLayerParams(a, 5, 1, 1);
    initLayerParams(b, 5, 1, 2);
    initLayerParams(c, 6, 1, 1);
    EXPECT_FALSE(a.bitwiseEqual(b));
    EXPECT_FALSE(a.bitwiseEqual(c));
}

TEST(LayerMath, InitBounded)
{
    LayerParams p = makeParams();
    for (std::size_t i = 0; i < kLayerDim; i++) {
        EXPECT_LT(std::fabs(p.weight[i]), 0.5f);
        EXPECT_LT(std::fabs(p.bias[i]), 0.05f + 1e-6f);
    }
}

TEST(LayerMath, ForwardBounded)
{
    LayerParams p = makeParams();
    Tensor in = makeInput();
    Tensor out(kLayerDim);
    layerForward(p, in, out);
    ASSERT_EQ(out.size(), kLayerDim);
    for (std::size_t i = 0; i < kLayerDim; i++)
        EXPECT_LT(std::fabs(out[i]), 1.0f);
}

TEST(LayerMath, ForwardDeterministic)
{
    LayerParams p = makeParams();
    Tensor in = makeInput();
    Tensor out1(kLayerDim), out2(kLayerDim);
    layerForward(p, in, out1);
    layerForward(p, in, out2);
    EXPECT_TRUE(out1.bitwiseEqual(out2));
}

TEST(LayerMath, ForwardDependsOnMixedWeight)
{
    // The w_{i+1} coupling term must matter: changing weight[1]
    // changes output[0].
    LayerParams p = makeParams();
    Tensor in = makeInput();
    Tensor base(kLayerDim);
    layerForward(p, in, base);
    p.weight[1] += 0.25f;
    Tensor bumped(kLayerDim);
    layerForward(p, in, bumped);
    EXPECT_NE(base[0], bumped[0]);
}

TEST(LayerMath, BackwardMatchesNumericalGradient)
{
    LayerParams p = makeParams();
    Tensor in = makeInput();
    Tensor out(kLayerDim);
    layerForward(p, in, out);

    // Scalar objective: L = sum(out).
    Tensor gradOut(kLayerDim);
    gradOut.fill(1.0f);
    Tensor gradIn(kLayerDim);
    LayerGrads grads;
    layerBackward(p, in, gradOut, gradIn, grads);

    auto lossAt = [&](const LayerParams &params, const Tensor &input) {
        Tensor o(kLayerDim);
        layerForward(params, input, o);
        double total = 0.0;
        for (std::size_t i = 0; i < kLayerDim; i++)
            total += o[i];
        return total;
    };

    const float eps = 1e-3f;
    // Check a few weight gradients via central differences.
    for (std::size_t i : {std::size_t{0}, std::size_t{7},
                          std::size_t{kLayerDim - 1}}) {
        LayerParams plus = p, minus = p;
        plus.weight[i] += eps;
        minus.weight[i] -= eps;
        double numeric =
            (lossAt(plus, in) - lossAt(minus, in)) / (2.0 * eps);
        EXPECT_NEAR(grads.weight[i], numeric, 5e-3) << "weight " << i;
    }
    // Bias gradients.
    for (std::size_t i : {std::size_t{3}, std::size_t{40}}) {
        LayerParams plus = p, minus = p;
        plus.bias[i] += eps;
        minus.bias[i] -= eps;
        double numeric =
            (lossAt(plus, in) - lossAt(minus, in)) / (2.0 * eps);
        EXPECT_NEAR(grads.bias[i], numeric, 5e-3) << "bias " << i;
    }
    // Input gradients.
    for (std::size_t i : {std::size_t{0}, std::size_t{31}}) {
        Tensor plus = in, minus = in;
        plus[i] += eps;
        minus[i] -= eps;
        double numeric =
            (lossAt(p, plus) - lossAt(p, minus)) / (2.0 * eps);
        EXPECT_NEAR(gradIn[i], numeric, 5e-3) << "input " << i;
    }
}

TEST(LayerMath, GradsAccumulateAcrossCalls)
{
    LayerParams p = makeParams();
    Tensor in = makeInput();
    Tensor gradOut(kLayerDim);
    gradOut.fill(1.0f);
    Tensor gradIn(kLayerDim);
    LayerGrads once, twice;
    layerBackward(p, in, gradOut, gradIn, once);
    layerBackward(p, in, gradOut, gradIn, twice);
    layerBackward(p, in, gradOut, gradIn, twice);
    for (std::size_t i = 0; i < kLayerDim; i++)
        EXPECT_NEAR(twice.weight[i], 2.0f * once.weight[i], 1e-6f);
}

TEST(LayerMath, GradClearAndAccumulate)
{
    LayerGrads g;
    g.weight[0] = 2.0f;
    LayerGrads h;
    h.weight[0] = 3.0f;
    g.accumulate(h);
    EXPECT_EQ(g.weight[0], 5.0f);
    g.clear();
    EXPECT_EQ(g.weight[0], 0.0f);
}

TEST(LayerMath, ScalarCount)
{
    LayerParams p;
    EXPECT_EQ(p.scalarCount(), 2 * kLayerDim);
}

// --- layerForward4: every column bitwise equal to layerForward -----

using Columns = std::array<std::array<float, kLayerDim>, kForwardColumns>;

std::uint32_t
bitsOf(float value)
{
    std::uint32_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

/** Uniform float in [lo, hi) from @p rng. */
float
draw(Xoshiro256StarStar &rng, float lo, float hi)
{
    float unit = static_cast<float>(rng.next() >> 40) * 0x1.0p-24f;
    return lo + (hi - lo) * unit;
}

/** Random layer: weights in ±wMax, biases in ±bMax. */
LayerParams
randomLayer(Xoshiro256StarStar &rng, float wMax, float bMax)
{
    LayerParams p;
    for (std::size_t i = 0; i < kLayerDim; i++) {
        p.weight[i] = draw(rng, -wMax, wMax);
        p.bias[i] = draw(rng, -bMax, bMax);
    }
    return p;
}

Columns
randomColumns(Xoshiro256StarStar &rng, float aMax)
{
    Columns cols;
    for (auto &col : cols) {
        for (float &a : col)
            a = draw(rng, -aMax, aMax);
    }
    return cols;
}

/**
 * Push @p cols through layerForward4 and each column alone through
 * layerForward; every output float must carry the same bits (so +0
 * and -0 count as different).
 */
void
expectColumnsMatch(const LayerParams &params, const Columns &cols)
{
    Columns got;
    const float *in[kForwardColumns];
    float *out[kForwardColumns];
    for (std::size_t c = 0; c < kForwardColumns; c++) {
        in[c] = cols[c].data();
        out[c] = got[c].data();
    }
    layerForward4(params, in, out);
    for (std::size_t c = 0; c < kForwardColumns; c++) {
        Tensor want(kLayerDim);
        layerForward(params, ConstTensorView(cols[c].data(), kLayerDim),
                     want);
        for (std::size_t i = 0; i < kLayerDim; i++) {
            ASSERT_EQ(bitsOf(got[c][i]), bitsOf(want[i]))
                << "column " << c << " element " << i << ": "
                << got[c][i] << " vs " << want[i];
        }
    }
}

TEST(LayerForward4, MatchesLayerForwardOnRandomLayers)
{
    Xoshiro256StarStar rng(41);
    for (int trial = 0; trial < 200; trial++) {
        LayerParams params = randomLayer(rng, 1.5f, 0.5f);
        expectColumnsMatch(params, randomColumns(rng, 2.0f));
    }
}

TEST(LayerForward4, MatchesLayerForwardWhenSaturating)
{
    Xoshiro256StarStar rng(42);
    int saturated = 0;
    for (int trial = 0; trial < 100; trial++) {
        LayerParams params = randomLayer(rng, 30.0f, 5.0f);
        Columns cols = randomColumns(rng, 4.0f);
        for (const auto &col : cols) {
            for (std::size_t i = 0; i < kLayerDim; i++) {
                float z = params.weight[i] * col[i] +
                          kMixCoeff * params.weight[(i + 1) % kLayerDim] +
                          params.bias[i];
                saturated += std::fabs(z) > 10.0f;
            }
        }
        expectColumnsMatch(params, cols);
    }
    // Most elements land deep in tanh's flat tails.
    EXPECT_GT(saturated, 100 * 4 * static_cast<int>(kLayerDim) / 2);
}

TEST(LayerForward4, MatchesLayerForwardOnSignedZerosAndSubnormals)
{
    const float specials[] = {0.0f,
                              -0.0f,
                              FLT_TRUE_MIN,
                              -FLT_TRUE_MIN,
                              FLT_MIN / 2.0f,
                              -FLT_MIN / 3.0f,
                              FLT_MIN,
                              1e-40f};
    constexpr std::size_t kSpecials = std::size(specials);
    Xoshiro256StarStar rng(43);
    for (int trial = 0; trial < 50; trial++) {
        LayerParams params = randomLayer(rng, 1.0f, 0.5f);
        // Zero and subnormal weights and biases too, so w * a and
        // the bias add both see them.
        for (std::size_t i = 0; i < kLayerDim; i += 3) {
            params.weight[i] = specials[rng.nextBelow(kSpecials)];
            params.bias[i] = specials[rng.nextBelow(kSpecials)];
        }
        Columns cols;
        for (auto &col : cols) {
            for (float &a : col)
                a = specials[rng.nextBelow(kSpecials)];
        }
        expectColumnsMatch(params, cols);
    }
}

TEST(LayerForward4, MatchesLayerForwardUnderFp16Rounding)
{
    constexpr auto kHalf = kernels::PrecisionMode::Fp16Rne;
    Xoshiro256StarStar rng(44);
    for (int trial = 0; trial < 100; trial++) {
        LayerParams params = randomLayer(rng, 1.5f, 0.5f);
        kernels::quantizeInPlace(kHalf, params.weight.data().data(),
                                 kLayerDim);
        kernels::quantizeInPlace(kHalf, params.bias.data().data(),
                                 kLayerDim);
        Columns cols = randomColumns(rng, 2.0f);
        for (auto &col : cols)
            kernels::quantizeInPlace(kHalf, col.data(), kLayerDim);
        expectColumnsMatch(params, cols);
    }
}

TEST(LayerForward4, IdenticalColumnsGiveIdenticalOutputs)
{
    Xoshiro256StarStar rng(45);
    for (int trial = 0; trial < 50; trial++) {
        LayerParams params = randomLayer(rng, 1.5f, 0.5f);
        Columns cols = randomColumns(rng, 2.0f);
        for (std::size_t c = 1; c < kForwardColumns; c++)
            cols[c] = cols[0];
        expectColumnsMatch(params, cols);
    }
}

// --- kept tanh: forward keeps tanh(z), backward skips the recompute --

/**
 * Run layerForwardKeepTanh and layerForward, then layerBackward and
 * layerBackwardKeptTanh, on the same operands: the outputs, input
 * gradients and accumulated parameter gradients must carry the same
 * bits.
 */
void
expectKeptMatches(const LayerParams &params, const Tensor &input,
                  const Tensor &gradOutput)
{
    Tensor out(kLayerDim), outKept(kLayerDim), kept(kLayerDim);
    layerForward(params, input, out);
    layerForwardKeepTanh(params, input, outKept, kept);
    for (std::size_t i = 0; i < kLayerDim; i++)
        ASSERT_EQ(bitsOf(outKept[i]), bitsOf(out[i])) << "output " << i;

    // Non-zero starting grads: both must accumulate the same way.
    LayerGrads want, got;
    for (std::size_t i = 0; i < kLayerDim; i++) {
        want.weight[i] = got.weight[i] = 0.01f * static_cast<float>(i);
        want.bias[i] = got.bias[i] = -0.02f * static_cast<float>(i);
    }
    Tensor gradInWant(kLayerDim), gradInGot(kLayerDim);
    layerBackward(params, input, gradOutput, gradInWant, want);
    layerBackwardKeptTanh(params, input, kept, gradOutput, gradInGot,
                          got);
    for (std::size_t i = 0; i < kLayerDim; i++) {
        ASSERT_EQ(bitsOf(gradInGot[i]), bitsOf(gradInWant[i]))
            << "grad input " << i;
        ASSERT_EQ(bitsOf(got.weight[i]), bitsOf(want.weight[i]))
            << "grad weight " << i;
        ASSERT_EQ(bitsOf(got.bias[i]), bitsOf(want.bias[i]))
            << "grad bias " << i;
    }
}

Tensor
randomVector(Xoshiro256StarStar &rng, float aMax)
{
    Tensor t(kLayerDim);
    for (std::size_t i = 0; i < kLayerDim; i++)
        t[i] = draw(rng, -aMax, aMax);
    return t;
}

TEST(LayerKeptTanh, MatchesRecomputeOnRandomLayers)
{
    Xoshiro256StarStar rng(51);
    for (int trial = 0; trial < 200; trial++) {
        LayerParams params = randomLayer(rng, 1.5f, 0.5f);
        expectKeptMatches(params, randomVector(rng, 2.0f),
                          randomVector(rng, 1.0f));
    }
}

TEST(LayerKeptTanh, MatchesRecomputeWhenSaturating)
{
    Xoshiro256StarStar rng(52);
    int saturated = 0;
    for (int trial = 0; trial < 100; trial++) {
        LayerParams params = randomLayer(rng, 30.0f, 5.0f);
        Tensor input = randomVector(rng, 4.0f);
        for (std::size_t i = 0; i < kLayerDim; i++) {
            float z = params.weight[i] * input[i] +
                      kMixCoeff * params.weight[(i + 1) % kLayerDim] +
                      params.bias[i];
            saturated += std::fabs(z) > 10.0f;
        }
        expectKeptMatches(params, input, randomVector(rng, 1.0f));
    }
    // Most elements sit where 1 - tanh^2 underflows toward zero.
    EXPECT_GT(saturated, 100 * static_cast<int>(kLayerDim) / 2);
}

TEST(LayerKeptTanh, MatchesRecomputeOnSignedZerosAndSubnormals)
{
    const float specials[] = {0.0f,          -0.0f,          FLT_TRUE_MIN,
                              -FLT_TRUE_MIN, FLT_MIN / 2.0f, -FLT_MIN / 3.0f,
                              FLT_MIN,       1e-40f};
    constexpr std::size_t kSpecials = std::size(specials);
    Xoshiro256StarStar rng(53);
    for (int trial = 0; trial < 50; trial++) {
        LayerParams params = randomLayer(rng, 1.0f, 0.5f);
        for (std::size_t i = 0; i < kLayerDim; i += 3) {
            params.weight[i] = specials[rng.nextBelow(kSpecials)];
            params.bias[i] = specials[rng.nextBelow(kSpecials)];
        }
        Tensor input(kLayerDim), gradOutput(kLayerDim);
        for (std::size_t i = 0; i < kLayerDim; i++) {
            input[i] = specials[rng.nextBelow(kSpecials)];
            gradOutput[i] = specials[rng.nextBelow(kSpecials)];
        }
        expectKeptMatches(params, input, gradOutput);
    }
}

TEST(LayerKeptTanh, MatchesRecomputeUnderFp16Rounding)
{
    constexpr auto kHalf = kernels::PrecisionMode::Fp16Rne;
    Xoshiro256StarStar rng(54);
    for (int trial = 0; trial < 100; trial++) {
        LayerParams params = randomLayer(rng, 1.5f, 0.5f);
        Tensor input = randomVector(rng, 2.0f);
        Tensor gradOutput = randomVector(rng, 1.0f);
        kernels::quantizeInPlace(kHalf, params.weight.data().data(),
                                 kLayerDim);
        kernels::quantizeInPlace(kHalf, params.bias.data().data(),
                                 kLayerDim);
        kernels::quantizeInPlace(kHalf, input.data().data(), kLayerDim);
        kernels::quantizeInPlace(kHalf, gradOutput.data().data(),
                                 kLayerDim);
        expectKeptMatches(params, input, gradOutput);
    }
}

TEST(LayerMath, BackwardMatchesFusedFormulaBitwise)
{
    // The backward runs as separate loops over raw pointers; pin it to
    // the one fused per-element formula it is split from, with the
    // same association, and check gradInput may be gradOutput.
    Xoshiro256StarStar rng(77);
    for (int trial = 0; trial < 50; trial++) {
        LayerParams params = randomLayer(rng, 1.5f, 0.5f);
        Tensor input = randomVector(rng, 2.0f);
        Tensor gradOutput = randomVector(rng, 1.0f);
        LayerGrads got, inPlace;
        for (std::size_t i = 0; i < kLayerDim; i++) {
            got.weight[i] = inPlace.weight[i] = 0.01f * static_cast<float>(i);
            got.bias[i] = inPlace.bias[i] = -0.02f * static_cast<float>(i);
        }
        LayerGrads want = got;
        Tensor gradIn(kLayerDim);
        layerBackward(params, input, gradOutput, gradIn, got);
        Tensor cursor = gradOutput;
        layerBackward(params, input, cursor, cursor, inPlace);

        Tensor t(kLayerDim);
        Tensor unused(kLayerDim);
        layerForwardKeepTanh(params, input, unused, t);
        float dz[kLayerDim];
        for (std::size_t i = 0; i < kLayerDim; i++)
            dz[i] = gradOutput[i] * kResidual * (1.0f - t[i] * t[i]);
        for (std::size_t i = 0; i < kLayerDim; i++) {
            std::size_t prev = (i + kLayerDim - 1) % kLayerDim;
            want.weight[i] += dz[i] * input[i] + kMixCoeff * dz[prev];
            want.bias[i] += dz[i];
            const float gi = gradOutput[i] + dz[i] * params.weight[i];
            ASSERT_EQ(bitsOf(gradIn[i]), bitsOf(gi)) << "grad input " << i;
            ASSERT_EQ(bitsOf(cursor[i]), bitsOf(gi)) << "in place " << i;
        }
        EXPECT_TRUE(got.weight.bitwiseEqual(want.weight));
        EXPECT_TRUE(got.bias.bitwiseEqual(want.bias));
        EXPECT_TRUE(inPlace.weight.bitwiseEqual(want.weight));
        EXPECT_TRUE(inPlace.bias.bitwiseEqual(want.bias));
    }
}

TEST(LayerMath, InitMatchesPerElementDraws)
{
    // initLayerParams draws through one batched Philox pass; pin it to
    // the per-element formula it replaced.
    for (std::uint32_t block : {0u, 7u, 47u}) {
        for (std::uint32_t choice : {0u, 5u, 71u}) {
            LayerParams p;
            initLayerParams(p, 11, block, choice);
            Philox4x32 philox(deriveSeed(11, "layer-init"));
            std::uint64_t base =
                (static_cast<std::uint64_t>(block) << 40) |
                (static_cast<std::uint64_t>(choice) << 20);
            for (std::size_t i = 0; i < kLayerDim; i++) {
                ASSERT_EQ(bitsOf(p.weight[i]),
                          bitsOf(philox.uniformFloat(base + i, 0) - 0.5f));
                ASSERT_EQ(bitsOf(p.bias[i]),
                          bitsOf(0.1f * (philox.uniformFloat(base + i, 1) -
                                         0.5f)));
            }
        }
    }
}

} // namespace
} // namespace naspipe
