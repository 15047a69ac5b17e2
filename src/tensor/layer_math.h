/**
 * @file
 * Numeric forward/backward surrogate of one candidate layer.
 *
 * Every candidate layer is trained with a fixed-width parameter
 * vector and an elementwise-mixing nonlinearity. The surrogate is
 * deliberately small — what the reproducibility experiments need is
 * real floating-point state whose final bits depend on the order of
 * parameter reads and writes, not a competitive model — but it is a
 * genuine differentiable layer. Like the transformer and conv blocks
 * of the real search spaces, it is *residual* — an identity path
 * plus a learned correction — so signal and gradients survive
 * arbitrary stacking depth and the supernet actually converges.
 * Forward computes
 *
 *     z_i = w_i * a_i + kMix * w_{(i+1) mod dim} + b_i,
 *     out_i = a_i + kResidual * tanh(z_i),
 *
 * (the w_{i+1} term couples parameters so updates are not separable),
 * and backward computes exact gradients of that function.
 *
 * The passes take non-owning views (LayerParamsView / LayerGradsView)
 * so the training engine can run them over arena-backed storage with
 * zero allocation; owning LayerParams/LayerGrads convert implicitly.
 * Output views must be pre-sized to kLayerDim.
 */

#ifndef NASPIPE_TENSOR_LAYER_MATH_H
#define NASPIPE_TENSOR_LAYER_MATH_H

#include "tensor/tensor.h"
#include "tensor/tensor_view.h"

namespace naspipe {

/** Width of every surrogate layer's activation/parameter vectors. */
constexpr std::size_t kLayerDim = 64;

/** Cross-parameter mixing coefficient. */
constexpr float kMixCoeff = 0.1f;

/** Residual-branch scale. */
constexpr float kResidual = 0.3f;

/** Parameters of one surrogate layer: weights and bias. */
struct LayerParams {
    Tensor weight;  ///< length kLayerDim
    Tensor bias;    ///< length kLayerDim

    LayerParams();

    /** Total number of scalars. */
    std::size_t scalarCount() const
    {
        return weight.size() + bias.size();
    }

    bool bitwiseEqual(const LayerParams &other) const;
    std::uint64_t contentHash() const;
};

/** Gradients matching LayerParams. */
struct LayerGrads {
    Tensor weight;
    Tensor bias;

    LayerGrads();

    void clear();
    void accumulate(const LayerGrads &other);
};

/** Non-owning read view of one layer's parameters. */
struct LayerParamsView {
    ConstTensorView weight;
    ConstTensorView bias;

    LayerParamsView(ConstTensorView w, ConstTensorView b)
        : weight(w), bias(b)
    {
    }

    LayerParamsView(const LayerParams &p)
        : weight(p.weight), bias(p.bias)
    {
    }
};

/** Non-owning accumulation view of one layer's gradients. */
struct LayerGradsView {
    TensorView weight;
    TensorView bias;

    LayerGradsView(TensorView w, TensorView b) : weight(w), bias(b) {}

    LayerGradsView(LayerGrads &g) : weight(g.weight), bias(g.bias) {}

    void clear() const
    {
        weight.fill(0.0f);
        bias.fill(0.0f);
    }
};

/**
 * Deterministically initialize @p params from (seed, block, choice) —
 * every rebuild anywhere yields identical initial weights, the
 * equivalent of fixing the framework init seed (§4.1).
 */
void initLayerParams(LayerParams &params, std::uint64_t seed,
                     std::uint32_t block, std::uint32_t choice);

/**
 * Forward pass of the surrogate layer.
 * @param params layer parameters (READ access)
 * @param input activation from the previous layer
 * @param output activation to the next layer (pre-sized kLayerDim)
 */
void layerForward(LayerParamsView params, ConstTensorView input,
                  TensorView output);

/** Columns layerForward4 pushes through a layer in one call. */
constexpr std::size_t kForwardColumns = 4;

/**
 * layerForward over kForwardColumns independent activation columns at
 * once: the mixing terms kMix * w_{i+1} are computed once for all
 * columns, then each column goes through one tanhSpan. Every column is
 * bitwise equal to layerForward on that column alone — z_i keeps
 * layerForward's association, (w_i * a_i + kMix * w_{i+1}) + b_i, so
 * no partial sum (such as mix + b) may be hoisted out of the column
 * loop.
 * @param input kLayerDim floats per column
 * @param output kLayerDim floats per column; must not alias any input
 */
void layerForward4(LayerParamsView params,
                   const float *const input[kForwardColumns],
                   float *const output[kForwardColumns]);

/**
 * layerForward that also writes tanh(z_i) into @p keptTanh
 * (pre-sized kLayerDim), so a backward over the same parameters and
 * input can skip the recompute (layerBackwardKeptTanh). @p output is
 * bitwise equal to layerForward's.
 */
void layerForwardKeepTanh(LayerParamsView params, ConstTensorView input,
                          TensorView output, TensorView keptTanh);

/**
 * Backward pass: exact gradients of layerForward.
 * @param params parameters used for the recomputation
 * @param input the forward input activation
 * @param gradOutput dL/d output
 * @param gradInput dL/d input (pre-sized kLayerDim; must not alias
 *        gradOutput)
 * @param grads dL/d params (accumulated into, must be zeroed by the
 *        caller if fresh gradients are wanted)
 */
void layerBackward(LayerParamsView params, ConstTensorView input,
                   ConstTensorView gradOutput, TensorView gradInput,
                   LayerGradsView grads);

/**
 * layerBackward with tanh(z_i) taken from @p keptTanh instead of
 * recomputed. Bitwise equal to layerBackward(params, input, ...)
 * whenever @p keptTanh came from layerForwardKeepTanh over the same
 * @p params bits and @p input bits; the caller owns that guarantee.
 */
void layerBackwardKeptTanh(LayerParamsView params, ConstTensorView input,
                           ConstTensorView keptTanh,
                           ConstTensorView gradOutput,
                           TensorView gradInput, LayerGradsView grads);

} // namespace naspipe

#endif // NASPIPE_TENSOR_LAYER_MATH_H
