#include "tensor/sgd.h"

#include <cstring>

#include "common/logging.h"

namespace naspipe {

namespace {

/** Block width of the plain step (see applyOne). */
constexpr std::size_t kStepBlock = 8;

} // namespace

SgdOptimizer::SgdOptimizer(const SgdConfig &config) : _config(config)
{
    NASPIPE_ASSERT(config.learningRate > 0.0f,
                   "learning rate must be positive");
    NASPIPE_ASSERT(config.momentum >= 0.0f && config.momentum < 1.0f,
                   "momentum must be in [0, 1)");
}

void
SgdOptimizer::applyOne(TensorView param, ConstTensorView grad,
                       TensorView *velocity) const
{
    NASPIPE_ASSERT(param.size() == grad.size(),
                   "optimizer shape mismatch");
    NASPIPE_ASSERT(!velocity || velocity->size() == param.size(),
                   "optimizer velocity shape mismatch");
    float *p = param.data();
    const float *g = grad.data();
    const std::size_t n = param.size();
    const float lr = _config.learningRate;
    const bool clip = _config.clipNorm > 0.0f;

    if (!clip && !velocity) {
        // The plain step the training engine takes, p -= lr * g, in
        // stack-copied blocks: a fixed trip count and no aliasing
        // question, so it vectorizes at -O2 as well as -O3.
        std::size_t i = 0;
        for (; i + kStepBlock <= n; i += kStepBlock) {
            float pb[kStepBlock];
            float gb[kStepBlock];
            std::memcpy(pb, p + i, sizeof(pb));
            std::memcpy(gb, g + i, sizeof(gb));
            for (std::size_t j = 0; j < kStepBlock; j++) // must vectorize
                pb[j] -= lr * gb[j];
            std::memcpy(p + i, pb, sizeof(pb));
        }
        for (; i < n; i++)
            p[i] -= lr * g[i];
        return;
    }

    float *v = velocity ? velocity->data() : nullptr;
    for (std::size_t i = 0; i < n; i++) {
        float gi = g[i];
        if (clip) {
            if (gi > _config.clipNorm)
                gi = _config.clipNorm;
            else if (gi < -_config.clipNorm)
                gi = -_config.clipNorm;
        }
        if (v) {
            float vi = _config.momentum * v[i] + gi;
            v[i] = vi;
            gi = vi;
        }
        p[i] -= lr * gi;
    }
}

void
SgdOptimizer::step(LayerParams &params, const LayerGrads &grads,
                   LayerGrads &velocity) const
{
    if (_config.momentum > 0.0f) {
        TensorView vw(velocity.weight);
        TensorView vb(velocity.bias);
        applyOne(params.weight, grads.weight, &vw);
        applyOne(params.bias, grads.bias, &vb);
    } else {
        applyOne(params.weight, grads.weight, nullptr);
        applyOne(params.bias, grads.bias, nullptr);
    }
}

void
SgdOptimizer::step(LayerParams &params, const LayerGrads &grads) const
{
    NASPIPE_ASSERT(_config.momentum == 0.0f,
                   "momentum requires a velocity buffer");
    applyOne(params.weight, grads.weight, nullptr);
    applyOne(params.bias, grads.bias, nullptr);
}

void
SgdOptimizer::stepView(TensorView weight, TensorView bias,
                       ConstTensorView gradWeight,
                       ConstTensorView gradBias) const
{
    NASPIPE_ASSERT(_config.momentum == 0.0f,
                   "momentum requires a velocity buffer");
    applyOne(weight, gradWeight, nullptr);
    applyOne(bias, gradBias, nullptr);
}

} // namespace naspipe
