#include "tensor/layer_math.h"

#include <cstring>

#include "common/logging.h"
#include "common/rng.h"
#include "tensor/kernels/tanh.h"

namespace naspipe {

LayerParams::LayerParams()
    : weight(kLayerDim), bias(kLayerDim)
{
}

bool
LayerParams::bitwiseEqual(const LayerParams &other) const
{
    return weight.bitwiseEqual(other.weight) &&
           bias.bitwiseEqual(other.bias);
}

std::uint64_t
LayerParams::contentHash() const
{
    // Combine the two hashes order-dependently.
    std::uint64_t h = weight.contentHash();
    h ^= bias.contentHash() + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
    return h;
}

LayerGrads::LayerGrads()
    : weight(kLayerDim), bias(kLayerDim)
{
}

void
LayerGrads::clear()
{
    weight.fill(0.0f);
    bias.fill(0.0f);
}

void
LayerGrads::accumulate(const LayerGrads &other)
{
    for (std::size_t i = 0; i < kLayerDim; i++) {
        weight[i] += other.weight[i];
        bias[i] += other.bias[i];
    }
}

void
initLayerParams(LayerParams &params, std::uint64_t seed,
                std::uint32_t block, std::uint32_t choice)
{
    Philox4x32 philox(deriveSeed(seed, "layer-init"));
    std::uint64_t base =
        (static_cast<std::uint64_t>(block) << 40) |
        (static_cast<std::uint64_t>(choice) << 20);
    float *weight = params.weight.data().data();
    float *bias = params.bias.data().data();
    philox.fillUniform(base, kLayerDim, weight, bias);
    for (std::size_t i = 0; i < kLayerDim; i++) {
        // Small symmetric init in (-0.5, 0.5).
        weight[i] = weight[i] - 0.5f;
        bias[i] = 0.1f * (bias[i] - 0.5f);
    }
}

namespace {

/**
 * kMix * w_{(i+1) mod dim}, the coupling term of z_i: one array per
 * layer, shared by every column pushed through it.
 */
inline void
mixTerms(LayerParamsView params, float *mix)
{
    const float *weight = params.weight.data();
    for (std::size_t i = 0; i < kLayerDim; i++)
        mix[i] = kMixCoeff * weight[(i + 1) % kLayerDim];
}

/**
 * t_i = tanh(z_i) for one column, z_i = (w_i * a_i + mix_i) + b_i:
 * the one expression every pass uses. z is built for the whole
 * column, then one tanhSpan call maps it in place.
 */
inline void
columnTanh(LayerParamsView params, const float *mix, const float *input,
           float *t)
{
    const float *weight = params.weight.data();
    const float *bias = params.bias.data();
    for (std::size_t i = 0; i < kLayerDim; i++)
        t[i] = weight[i] * input[i] + mix[i] + bias[i];
    kernels::tanhSpan(t, t, kLayerDim);
}

/** columnTanh for a lone column, with its own mixing terms. */
inline void
columnTanh(LayerParamsView params, const float *input, float *t)
{
    float mix[kLayerDim];
    mixTerms(params, mix);
    columnTanh(params, mix, input, t);
}

/** out_i = a_i + kResidual * t_i: the identity path plus the branch. */
inline void
residualOutput(const float *input, const float *t, float *output)
{
    for (std::size_t i = 0; i < kLayerDim; i++)
        output[i] = input[i] + kResidual * t[i];
}

/**
 * The backward after tanh: dz from t_i = tanh(z_i), then the
 * parameter and input gradients. The scratch lives on the stack — the
 * backward path allocates nothing. Each loop indexes raw pointers and
 * touches at most one array it does not own, or only reads those, so
 * no aliasing question keeps it scalar: each vectorizes at -O2
 * (tools/check_vectorized.sh). Every expression keeps the
 * association of the fused formulas in the comments.
 */
inline void
backwardFromTanh(LayerParamsView params, ConstTensorView input,
                 const float *t, ConstTensorView gradOutput,
                 TensorView gradInput, LayerGradsView grads)
{
    NASPIPE_ASSERT(params.weight.size() == kLayerDim &&
                       grads.weight.size() == kLayerDim &&
                       grads.bias.size() == kLayerDim,
                   "layer backward shape mismatch");
    const float *in = input.data();
    const float *gout = gradOutput.data();
    const float *w = params.weight.data();

    // dz_i is dzShift[i + 1]; dzShift[0] repeats dz_{dim-1}, so
    // dz_{(i-1) mod dim} is dzShift[i] with no wrap in the loop.
    float dzShift[kLayerDim + 1];
    float *dz = dzShift + 1;
    for (std::size_t i = 0; i < kLayerDim; i++) // must vectorize
        dz[i] = gout[i] * kResidual * (1.0f - t[i] * t[i]);
    dzShift[0] = dz[kLayerDim - 1];

    // gw_i += dz_i * input_i + kMixCoeff * dz_{i-1}: w_i appears in
    // z_i (times input_i) and in z_{i-1} (times kMixCoeff).
    float term[kLayerDim];
    for (std::size_t i = 0; i < kLayerDim; i++) // must vectorize
        term[i] = dz[i] * in[i] + kMixCoeff * dzShift[i];
    float *gw = grads.weight.data();
    for (std::size_t i = 0; i < kLayerDim; i++) // must vectorize
        gw[i] += term[i];

    float *gb = grads.bias.data();
    for (std::size_t i = 0; i < kLayerDim; i++) // must vectorize
        gb[i] += dz[i];

    // gi_i = gradOutput_i + dz_i * w_i: the identity path contributes
    // gradOutput directly. Built on the stack, so gradInput may be
    // gradOutput.
    float gi[kLayerDim];
    for (std::size_t i = 0; i < kLayerDim; i++) // must vectorize
        gi[i] = gout[i] + dz[i] * w[i];
    std::memcpy(gradInput.data(), gi, sizeof(gi));
}

} // namespace

void
layerForward(LayerParamsView params, ConstTensorView input,
             TensorView output)
{
    NASPIPE_ASSERT(input.size() == kLayerDim &&
                       output.size() == kLayerDim,
                   "layer forward shape mismatch");
    float t[kLayerDim];
    columnTanh(params, input.data(), t);
    residualOutput(input.data(), t, output.data());
}

void
layerForwardKeepTanh(LayerParamsView params, ConstTensorView input,
                     TensorView output, TensorView keptTanh)
{
    NASPIPE_ASSERT(input.size() == kLayerDim &&
                       output.size() == kLayerDim &&
                       keptTanh.size() == kLayerDim,
                   "layer forward shape mismatch");
    columnTanh(params, input.data(), keptTanh.data());
    residualOutput(input.data(), keptTanh.data(), output.data());
}

void
layerForward4(LayerParamsView params,
              const float *const input[kForwardColumns],
              float *const output[kForwardColumns])
{
    NASPIPE_ASSERT(params.weight.size() == kLayerDim &&
                       params.bias.size() == kLayerDim,
                   "layer forward shape mismatch");
    float mix[kLayerDim];
    mixTerms(params, mix);
    for (std::size_t c = 0; c < kForwardColumns; c++) {
        float t[kLayerDim];
        columnTanh(params, mix, input[c], t);
        residualOutput(input[c], t, output[c]);
    }
}

void
layerBackward(LayerParamsView params, ConstTensorView input,
              ConstTensorView gradOutput, TensorView gradInput,
              LayerGradsView grads)
{
    NASPIPE_ASSERT(input.size() == kLayerDim &&
                       gradOutput.size() == kLayerDim &&
                       gradInput.size() == kLayerDim,
                   "layer backward shape mismatch");

    // Recompute z (activation recomputation semantics): the backward
    // uses the parameter values *current at backward time*, exactly
    // like PyTorch's checkpoint utility the paper uses.
    float t[kLayerDim];
    columnTanh(params, input.data(), t);
    backwardFromTanh(params, input, t, gradOutput, gradInput, grads);
}

void
layerBackwardKeptTanh(LayerParamsView params, ConstTensorView input,
                      ConstTensorView keptTanh,
                      ConstTensorView gradOutput, TensorView gradInput,
                      LayerGradsView grads)
{
    NASPIPE_ASSERT(input.size() == kLayerDim &&
                       keptTanh.size() == kLayerDim &&
                       gradOutput.size() == kLayerDim &&
                       gradInput.size() == kLayerDim,
                   "layer backward shape mismatch");
    backwardFromTanh(params, input, keptTanh.data(), gradOutput,
                     gradInput, grads);
}

} // namespace naspipe
