/**
 * @file
 * SGD optimizer tests.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "tensor/sgd.h"

namespace naspipe {
namespace {

TEST(Sgd, PlainStep)
{
    SgdConfig config;
    config.learningRate = 0.1f;
    SgdOptimizer opt(config);
    LayerParams p;
    p.weight.fill(1.0f);
    LayerGrads g;
    g.weight.fill(2.0f);
    opt.step(p, g);
    EXPECT_NEAR(p.weight[0], 0.8f, 1e-6f);
}

TEST(Sgd, BiasUpdatedToo)
{
    SgdConfig config;
    config.learningRate = 0.5f;
    SgdOptimizer opt(config);
    LayerParams p;
    p.bias.fill(1.0f);
    LayerGrads g;
    g.bias.fill(1.0f);
    opt.step(p, g);
    EXPECT_NEAR(p.bias[kLayerDim - 1], 0.5f, 1e-6f);
}

TEST(Sgd, ClippingLimitsUpdates)
{
    SgdConfig config;
    config.learningRate = 1.0f;
    config.clipNorm = 0.5f;
    SgdOptimizer opt(config);
    LayerParams p;
    LayerGrads g;
    g.weight.fill(10.0f);
    g.weight[1] = -10.0f;
    opt.step(p, g);
    EXPECT_NEAR(p.weight[0], -0.5f, 1e-6f);
    EXPECT_NEAR(p.weight[1], 0.5f, 1e-6f);
}

TEST(Sgd, MomentumAccumulatesVelocity)
{
    SgdConfig config;
    config.learningRate = 1.0f;
    config.momentum = 0.5f;
    SgdOptimizer opt(config);
    LayerParams p;
    LayerGrads g;
    g.weight.fill(1.0f);
    LayerGrads velocity;
    opt.step(p, g, velocity);
    EXPECT_NEAR(p.weight[0], -1.0f, 1e-6f);  // v = 1
    opt.step(p, g, velocity);
    EXPECT_NEAR(p.weight[0], -2.5f, 1e-6f);  // v = 1.5
}

TEST(Sgd, MomentumWithoutBufferPanics)
{
    SgdConfig config;
    config.momentum = 0.9f;
    SgdOptimizer opt(config);
    LayerParams p;
    LayerGrads g;
    EXPECT_THROW(opt.step(p, g), std::logic_error);
}

TEST(Sgd, InvalidHyperparametersPanic)
{
    SgdConfig bad;
    bad.learningRate = 0.0f;
    EXPECT_THROW(SgdOptimizer{bad}, std::logic_error);
    SgdConfig badMomentum;
    badMomentum.momentum = 1.0f;
    EXPECT_THROW(SgdOptimizer{badMomentum}, std::logic_error);
}

TEST(Sgd, DeterministicUpdates)
{
    auto run = [] {
        SgdOptimizer opt(SgdConfig{});
        LayerParams p;
        initLayerParams(p, 3, 0, 0);
        LayerGrads g;
        g.weight.fill(0.123f);
        for (int i = 0; i < 10; i++)
            opt.step(p, g);
        return p.contentHash();
    };
    EXPECT_EQ(run(), run());
}

/** p -= lr * g per element, clipped and with momentum as configured. */
void
referenceStep(const SgdConfig &config, float *p, const float *g,
              float *v, std::size_t n)
{
    for (std::size_t i = 0; i < n; i++) {
        float gi = g[i];
        if (config.clipNorm > 0.0f)
            gi = std::min(std::max(gi, -config.clipNorm), config.clipNorm);
        if (v) {
            v[i] = config.momentum * v[i] + gi;
            gi = v[i];
        }
        p[i] -= config.learningRate * gi;
    }
}

TEST(Sgd, PlainStepMatchesPerElementFormulaAtEveryLength)
{
    // The plain step runs in blocks with a scalar tail: lengths on and
    // off the block width must all give the per-element bits.
    SgdConfig config;
    config.learningRate = 0.07f;
    SgdOptimizer opt(config);
    for (std::size_t n = 1; n <= 19; n++) {
        Tensor w(n), b(n), gw(n), gb(n);
        for (std::size_t i = 0; i < n; i++) {
            w[i] = 0.1f * static_cast<float>(i) - 0.4f;
            b[i] = 0.03f * static_cast<float>(i);
            gw[i] = 0.37f * static_cast<float>(i % 5) - 0.6f;
            gb[i] = -0.11f * static_cast<float>(i % 3);
        }
        Tensor wantW = w, wantB = b;
        referenceStep(config, wantW.data().data(), gw.data().data(),
                      nullptr, n);
        referenceStep(config, wantB.data().data(), gb.data().data(),
                      nullptr, n);
        opt.stepView(w, b, gw, gb);
        EXPECT_TRUE(w.bitwiseEqual(wantW)) << "n " << n;
        EXPECT_TRUE(b.bitwiseEqual(wantB)) << "n " << n;
    }
}

TEST(Sgd, ClipAndMomentumMatchPerElementFormula)
{
    for (bool clip : {false, true}) {
        for (bool momentum : {false, true}) {
            SgdConfig config;
            config.learningRate = 0.07f;
            config.clipNorm = clip ? 0.3f : 0.0f;
            config.momentum = momentum ? 0.9f : 0.0f;
            SgdOptimizer opt(config);
            LayerParams p;
            initLayerParams(p, 9, 1, 2);
            LayerGrads g, velocity;
            for (std::size_t i = 0; i < kLayerDim; i++) {
                g.weight[i] = 0.37f * static_cast<float>(i % 5) - 0.6f;
                g.bias[i] = -0.11f * static_cast<float>(i % 3);
            }
            LayerParams want = p;
            LayerGrads wantV;
            for (int step = 0; step < 3; step++) {
                if (momentum)
                    opt.step(p, g, velocity);
                else
                    opt.step(p, g);
                referenceStep(config, want.weight.data().data(),
                              g.weight.data().data(),
                              momentum ? wantV.weight.data().data()
                                       : nullptr,
                              kLayerDim);
                referenceStep(config, want.bias.data().data(),
                              g.bias.data().data(),
                              momentum ? wantV.bias.data().data()
                                       : nullptr,
                              kLayerDim);
            }
            EXPECT_TRUE(p.bitwiseEqual(want))
                << "clip " << clip << " momentum " << momentum;
        }
    }
}

} // namespace
} // namespace naspipe
