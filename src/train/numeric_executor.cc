#include "train/numeric_executor.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "tensor/kernels/reduce.h"
#include "tensor/kernels/tanh.h"
#include "tensor/loss.h"

namespace naspipe {

const char *
updateSemanticsName(UpdateSemantics semantics)
{
    switch (semantics) {
      case UpdateSemantics::Immediate:
        return "immediate";
      case UpdateSemantics::WeightStash:
        return "weight-stash";
      case UpdateSemantics::Deferred:
        return "deferred";
    }
    return "?";
}

namespace {

/** The effective optimizer settings after batch-linear LR scaling. */
SgdConfig
effectiveSgd(const NumericExecutor::Config &config,
             const SearchSpace &space)
{
    SgdConfig sgd = config.sgd;
    if (config.scaleLrWithBatch) {
        sgd.learningRate *= static_cast<float>(
            static_cast<double>(config.batch) /
            space.referenceBatch());
    }
    return sgd;
}

} // namespace

NumericExecutor::NumericExecutor(ParameterStore &store,
                                 const Config &config)
    : _store(store), _config(config),
      _optimizer(effectiveSgd(config, store.space())),
      _inputRng(deriveSeed(config.dataSeed, "input")),
      _gradNoiseRng(deriveSeed(config.dataSeed, "grad-noise")),
      _gradNoiseScale(static_cast<float>(
          config.gradNoise /
          std::sqrt(static_cast<double>(config.batch))))
{
    NASPIPE_ASSERT(config.batch >= 1, "batch must be >= 1");
    NASPIPE_ASSERT(config.gradNoise >= 0.0,
                   "gradient noise must be non-negative");
    NASPIPE_ASSERT(config.precision == store.precision(),
                   "executor/store precision mismatch");
    // Lanes 0 and 1 of counters 0 .. kLayerDim - 1.
    Philox4x32(deriveSeed(config.dataSeed, "teacher"))
        .fillUniform(0, kLayerDim, _teacherA.data(), _teacherB.data());
    for (std::size_t i = 0; i < kLayerDim; i++) {
        _teacherA[i] = 0.5f + _teacherA[i];
        _teacherB[i] = _teacherB[i] - 0.5f;
    }
}

void
NumericExecutor::fillDigest(TensorView out, SubnetId id) const
{
    _inputRng.fillUniform(static_cast<std::uint64_t>(id) * kLayerDim,
                          kLayerDim, out.data());
    for (std::size_t i = 0; i < kLayerDim; i++)
        out[i] = 2.0f * out[i] - 1.0f;
}

/**
 * The fixed "teacher": targets are a deterministic elementwise map
 * of the input, shared across every training step. All subnets
 * therefore learn toward the same underlying function and shared
 * layers accumulate consistent signal — the supernet genuinely
 * converges instead of chasing per-step random targets. The
 * coefficients a_i in (0.5, 1.5) and b_i in (-0.5, 0.5) are drawn in
 * the constructor.
 */
void
NumericExecutor::fillTeacherTarget(TensorView out,
                                   ConstTensorView input) const
{
    for (std::size_t i = 0; i < kLayerDim; i++)
        out[i] = _teacherA[i] * input[i] + _teacherB[i];
    kernels::tanhSpan(out.data(), out.data(), kLayerDim);
}

void
NumericExecutor::beginSubnet(const Subnet &subnet)
{
    NASPIPE_ASSERT(!inflightSubnet(subnet.id()), "SN", subnet.id(),
                   " already in flight");
    SubnetContext ctx;
    ctx.subnet = subnet;
    // One arena backs the subnet's whole numeric state; the act
    // vector holds views, so the per-activation std::vector
    // allocations of the old hot path are gone.
    std::size_t blocks = static_cast<std::size_t>(subnet.size());
    ctx.act.reserve(blocks + 1);
    for (std::size_t b = 0; b <= blocks; b++)
        ctx.act.push_back(ctx.arena.allocVector(kLayerDim));
    ctx.kept.resize(blocks);
    for (std::size_t b = 0; b < blocks; b++) {
        int block = static_cast<int>(b);
        if (_store.space().parameterized(block, subnet.choice(block)))
            ctx.kept[b].tanh = ctx.arena.allocVector(kLayerDim);
    }
    ctx.target = ctx.arena.allocVector(kLayerDim);
    ctx.gradCursor = ctx.arena.allocVector(kLayerDim);
    ctx.gradScratch = ctx.arena.allocVector(kLayerDim);
    ctx.blockGrads = LayerGradsView(ctx.arena.allocVector(kLayerDim),
                                    ctx.arena.allocVector(kLayerDim));
    fillDigest(ctx.act[0], subnet.id());
    quantizeStored(ctx.act[0]);
    fillTeacherTarget(ctx.target, ctx.act[0]);
    quantizeStored(ctx.target);
    ctx.bwdProgress = subnet.size() - 1;
    std::unique_lock<RankedSharedMutex> lock(_ctxMu);
    _contexts.emplace(subnet.id(), std::move(ctx));
}

NumericExecutor::SubnetContext &
NumericExecutor::context(SubnetId id)
{
    std::shared_lock<RankedSharedMutex> lock(_ctxMu);
    auto it = _contexts.find(id);
    NASPIPE_ASSERT(it != _contexts.end(), "SN", id, " not in flight");
    return it->second;
}

void
NumericExecutor::forwardStage(const Subnet &subnet, int lo, int hi,
                              UpdateSemantics semantics, int stage)
{
    SubnetContext &ctx = context(subnet.id());
    NASPIPE_ASSERT(lo == ctx.fwdProgress,
                   "forward must be contiguous: expected block ",
                   ctx.fwdProgress, " got ", lo);
    NASPIPE_ASSERT(hi < subnet.size(), "block range out of bounds");
    for (int b = lo; b <= hi; b++) {
        std::size_t bi = static_cast<std::size_t>(b);
        // Skip candidates are identity passthroughs: no parameters,
        // no READ, activation flows through unchanged.
        if (!_store.space().parameterized(b, subnet.choice(b))) {
            ctx.act[bi + 1].copyFrom(ctx.act[bi]);
            continue;
        }
        LayerId layer = subnet.layer(b);
        const LayerParams &params =
            _store.read(layer, subnet.id(), stage);
        KeptTanh &kept = ctx.kept[bi];
        kept.stamp = _store.stamp(layer);
        if (semantics == UpdateSemantics::WeightStash &&
            ctx.stashed.find(b) == ctx.stashed.end()) {
            // Snapshot the version into the subnet's arena.
            TensorView w = ctx.arena.allocVector(kLayerDim);
            TensorView bia = ctx.arena.allocVector(kLayerDim);
            w.copyFrom(params.weight);
            bia.copyFrom(params.bias);
            ctx.stashed.emplace(b, LayerParamsView(w, bia));
        }
        layerForwardKeepTanh(params, ctx.act[bi], ctx.act[bi + 1],
                             kept.tanh);
        quantizeStored(ctx.act[bi + 1]);
    }
    ctx.fwdProgress = hi + 1;
}

float
NumericExecutor::computeLoss(const Subnet &subnet)
{
    SubnetContext &ctx = context(subnet.id());
    NASPIPE_ASSERT(ctx.fwdProgress == subnet.size(),
                   "loss before forward completed");
    NASPIPE_ASSERT(!ctx.lossComputed, "loss computed twice");
    ConstTensorView out =
        ctx.act[static_cast<std::size_t>(subnet.size())];
    ctx.loss = kernels::quantize(_config.precision,
                                 mseLoss(out, ctx.target));
    mseLossGrad(out, ctx.target, ctx.gradCursor);
    quantizeStored(ctx.gradCursor);
    ctx.lossComputed = true;
    return ctx.loss;
}

void
NumericExecutor::applyUpdate(const Subnet &subnet, int block,
                             ConstTensorView gradWeight,
                             ConstTensorView gradBias, int stage)
{
    LayerParams &params =
        _store.write(subnet.layer(block), subnet.id(), stage);
    if (_config.gradNoise > 0.0) {
        // Mini-batch gradient noise: standard error ~ 1/sqrt(batch).
        // The noisy gradients live on the stack — applyUpdate runs
        // concurrently on different layers from different stage
        // workers, and must not allocate. One batched Philox pass
        // draws lane 0 (weights) and lane 1 (biases) of every counter.
        std::uint64_t base =
            (static_cast<std::uint64_t>(subnet.id()) << 24) ^
            (static_cast<std::uint64_t>(block) << 12);
        float noisyW[kLayerDim];
        float noisyB[kLayerDim];
        _gradNoiseRng.fillUniform(base, kLayerDim, noisyW, noisyB);
        const float scale = _gradNoiseScale;
        NASPIPE_ASSERT(gradWeight.size() == kLayerDim &&
                           gradBias.size() == kLayerDim,
                       "gradient shape mismatch");
        const float *gw = gradWeight.data();
        const float *gb = gradBias.data();
        for (std::size_t i = 0; i < kLayerDim; i++) {
            noisyW[i] = gw[i] + scale * (2.0f * noisyW[i] - 1.0f);
            noisyB[i] = gb[i] + scale * (2.0f * noisyB[i] - 1.0f);
        }
        _optimizer.stepView(params.weight, params.bias,
                            ConstTensorView(noisyW, kLayerDim),
                            ConstTensorView(noisyB, kLayerDim));
    } else {
        _optimizer.stepView(params.weight, params.bias, gradWeight,
                            gradBias);
    }
    if (_config.precision != kernels::PrecisionMode::Fp32) {
        quantizeStored(params.weight);
        quantizeStored(params.bias);
    }
}

void
NumericExecutor::backwardStage(const Subnet &subnet, int lo, int hi,
                               UpdateSemantics semantics, int stage)
{
    SubnetContext &ctx = context(subnet.id());
    NASPIPE_ASSERT(ctx.lossComputed, "backward before loss");
    NASPIPE_ASSERT(hi == ctx.bwdProgress,
                   "backward must be contiguous: expected block ",
                   ctx.bwdProgress, " got ", hi);
    NASPIPE_ASSERT(lo >= 0, "block range out of bounds");

    for (int b = hi; b >= lo; b--) {
        // Identity passthrough: the gradient flows through unchanged
        // and there is nothing to update.
        if (!_store.space().parameterized(b, subnet.choice(b)))
            continue;
        LayerId layer = subnet.layer(b);

        LayerGradsView grads = ctx.blockGrads;
        if (semantics == UpdateSemantics::Deferred) {
            auto inserted = ctx.deferred.emplace(
                b,
                LayerGradsView(ctx.arena.allocVector(kLayerDim),
                               ctx.arena.allocVector(kLayerDim)));
            grads = inserted.first->second;
        }
        grads.clear();

        const auto bi = static_cast<std::size_t>(b);
        LayerParamsView gradSource{ConstTensorView(),
                                   ConstTensorView()};
        bool keptValid = false;
        if (semantics == UpdateSemantics::WeightStash) {
            auto it = ctx.stashed.find(b);
            NASPIPE_ASSERT(it != ctx.stashed.end(),
                           "missing stashed weights for block ", b);
            gradSource = it->second;
            // The stash is the version the forward read.
            keptValid = true;
        } else {
            // Recompute semantics: gradients use the parameters
            // current at backward time (PyTorch checkpoint). While no
            // write() or load() touched the layer since the forward
            // read, those are the forward's parameters and the
            // recompute would reproduce the kept tanh(z) bit for bit.
            gradSource = LayerParamsView(_store.peek(layer));
            keptValid = ctx.kept[bi].stamp == _store.stamp(layer);
        }

        if (keptValid) {
            layerBackwardKeptTanh(gradSource, ctx.act[bi],
                                  ctx.kept[bi].tanh, ctx.gradCursor,
                                  ctx.gradScratch, grads);
        } else {
            layerBackward(gradSource, ctx.act[bi], ctx.gradCursor,
                          ctx.gradScratch, grads);
        }
        quantizeStored(ctx.gradScratch);
        if (_config.precision != kernels::PrecisionMode::Fp32) {
            quantizeStored(grads.weight);
            quantizeStored(grads.bias);
        }
        std::swap(ctx.gradCursor, ctx.gradScratch);

        if (semantics != UpdateSemantics::Deferred)
            applyUpdate(subnet, b, grads.weight, grads.bias, stage);
    }
    ctx.bwdProgress = lo - 1;
}

float
NumericExecutor::finishSubnet(const Subnet &subnet)
{
    std::unique_lock<RankedSharedMutex> lock(_ctxMu);
    auto it = _contexts.find(subnet.id());
    NASPIPE_ASSERT(it != _contexts.end(), "SN", subnet.id(),
                   " not in flight");
    SubnetContext &ctx = it->second;
    NASPIPE_ASSERT(ctx.bwdProgress < 0,
                   "finish before backward completed");
    NASPIPE_ASSERT(ctx.deferred.empty(),
                   "finish with unapplied deferred gradients");
    float loss = ctx.loss;
    _contexts.erase(it);
    return loss;
}

float
NumericExecutor::inflightLoss(SubnetId id) const
{
    std::shared_lock<RankedSharedMutex> lock(_ctxMu);
    auto it = _contexts.find(id);
    NASPIPE_ASSERT(it != _contexts.end(), "SN", id, " not in flight");
    NASPIPE_ASSERT(it->second.lossComputed, "SN", id,
                   " has no loss yet");
    return it->second.loss;
}

void
NumericExecutor::applyDeferredUpdates(std::vector<SubnetId> subnets)
{
    std::sort(subnets.begin(), subnets.end());
    for (SubnetId id : subnets) {
        SubnetContext &ctx = context(id);
        // std::map iterates blocks in ascending order: a fixed,
        // documented bulk-update order.
        for (const auto &[block, grads] : ctx.deferred)
            applyUpdate(ctx.subnet, block, grads.weight, grads.bias,
                        -1);
        ctx.deferred.clear();
    }
}

float
NumericExecutor::trainSequential(const Subnet &subnet)
{
    beginSubnet(subnet);
    forwardStage(subnet, 0, subnet.size() - 1,
                 UpdateSemantics::Immediate);
    computeLoss(subnet);
    backwardStage(subnet, 0, subnet.size() - 1,
                  UpdateSemantics::Immediate);
    return finishSubnet(subnet);
}

NumericExecutor::EvalSet
NumericExecutor::makeEvalSet(std::uint64_t evalSeed) const
{
    Philox4x32 philox(deriveSeed(evalSeed, "eval"));
    EvalSet set{};
    for (std::size_t e = 0; e < kEvalBatches; e++) {
        TensorView input(set.input[e].data(), kLayerDim);
        TensorView target(set.target[e].data(), kLayerDim);
        philox.fillUniform(e * 2 * kLayerDim, kLayerDim, input.data());
        for (std::size_t i = 0; i < kLayerDim; i++)
            input[i] = 2.0f * input[i] - 1.0f;
        quantizeStored(input);
        // Held-out inputs, same teacher: a real generalization probe.
        fillTeacherTarget(target, input);
        quantizeStored(target);
    }
    return set;
}

float
NumericExecutor::evaluate(const Subnet &subnet,
                          const EvalSet &evalSet) const
{
    static_assert(kEvalBatches == kForwardColumns,
                  "one layerForward4 call carries every eval batch");
    // Each batch ping-pongs between two stack buffers; before the
    // first parameterized layer the activations are the eval inputs.
    float buffers[2][kEvalBatches][kLayerDim];
    const float *act[kEvalBatches];
    float *next[kEvalBatches];
    for (std::size_t e = 0; e < kEvalBatches; e++)
        act[e] = evalSet.input[e].data();
    int side = 0;
    for (int b = 0; b < subnet.size(); b++) {
        if (!_store.space().parameterized(b, subnet.choice(b)))
            continue;  // identity passthrough
        for (std::size_t e = 0; e < kEvalBatches; e++)
            next[e] = buffers[side][e];
        layerForward4(_store.find(subnet.layer(b)), act, next);
        for (std::size_t e = 0; e < kEvalBatches; e++) {
            quantizeStored(TensorView(next[e], kLayerDim));
            act[e] = next[e];
        }
        side ^= 1;
    }
    float losses[kEvalBatches];
    for (std::size_t e = 0; e < kEvalBatches; e++) {
        losses[e] = kernels::quantize(
            _config.precision,
            mseLoss(ConstTensorView(act[e], kLayerDim),
                    ConstTensorView(evalSet.target[e].data(),
                                    kLayerDim)));
    }
    // Batch losses combine in the same fixed tree as every other
    // reduction; no raw float accumulation outside the kernel layer.
    return kernels::treeSum(losses, kEvalBatches) /
           static_cast<float>(kEvalBatches);
}

float
NumericExecutor::evaluate(const Subnet &subnet, std::uint64_t evalSeed)
{
    _store.materializeLayers(subnet);
    return evaluate(subnet, makeEvalSet(evalSeed));
}

} // namespace naspipe
