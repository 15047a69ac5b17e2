/**
 * @file
 * google-benchmark micro-benchmarks of the numeric training plane:
 * the per-layer surrogate math, whole-subnet training steps,
 * checkpoint serialization and the post-run search. The numeric
 * plane must stay cheap next to the event simulation so full
 * evaluation sweeps run in seconds.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "supernet/sampler.h"
#include "tensor/kernels/reduce.h"
#include "train/convergence.h"
#include "train/numeric_executor.h"

namespace naspipe {
namespace {

void
BM_LayerForward(benchmark::State &state)
{
    LayerParams params;
    initLayerParams(params, 3, 0, 0);
    Tensor in(kLayerDim), out(kLayerDim);
    in.fill(0.25f);
    for (auto _ : state) {
        layerForward(params, in, out);
        benchmark::DoNotOptimize(out.data().data());
    }
    state.SetItemsProcessed(state.iterations());  // columns
}
BENCHMARK(BM_LayerForward);

void
BM_LayerForward4(benchmark::State &state)
{
    // Items are columns, so items_per_second compares directly with
    // BM_LayerForward's.
    LayerParams params;
    initLayerParams(params, 3, 0, 0);
    float in[kForwardColumns][kLayerDim];
    float out[kForwardColumns][kLayerDim];
    const float *inCols[kForwardColumns];
    float *outCols[kForwardColumns];
    for (std::size_t c = 0; c < kForwardColumns; c++) {
        for (std::size_t i = 0; i < kLayerDim; i++)
            in[c][i] = 0.25f + 0.125f * static_cast<float>(c);
        inCols[c] = in[c];
        outCols[c] = out[c];
    }
    for (auto _ : state) {
        layerForward4(params, inCols, outCols);
        benchmark::DoNotOptimize(outCols);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kForwardColumns));
}
BENCHMARK(BM_LayerForward4);

void
BM_LayerBackward(benchmark::State &state)
{
    LayerParams params;
    initLayerParams(params, 3, 0, 0);
    Tensor in(kLayerDim), gradOut(kLayerDim), gradIn(kLayerDim);
    in.fill(0.25f);
    gradOut.fill(0.1f);
    LayerGrads grads;
    for (auto _ : state) {
        grads.clear();
        layerBackward(params, in, gradOut, gradIn, grads);
        benchmark::DoNotOptimize(grads.weight.data().data());
    }
}
BENCHMARK(BM_LayerBackward);

void
BM_LayerBackwardKept(benchmark::State &state)
{
    // The backward of a layer whose forward kept tanh(z): the same
    // bits as BM_LayerBackward's, without the recompute.
    LayerParams params;
    initLayerParams(params, 3, 0, 0);
    Tensor in(kLayerDim), out(kLayerDim), kept(kLayerDim);
    Tensor gradOut(kLayerDim), gradIn(kLayerDim);
    in.fill(0.25f);
    gradOut.fill(0.1f);
    layerForwardKeepTanh(params, in, out, kept);
    LayerGrads grads;
    for (auto _ : state) {
        grads.clear();
        layerBackwardKeptTanh(params, in, kept, gradOut, gradIn, grads);
        benchmark::DoNotOptimize(grads.weight.data().data());
    }
}
BENCHMARK(BM_LayerBackwardKept);

void
BM_PhiloxPerElement(benchmark::State &state)
{
    // One update's grad noise drawn the per-element way: one
    // uniformFloat call per (element, lane).
    Philox4x32 philox(11);
    float lane0[kLayerDim], lane1[kLayerDim];
    std::uint64_t base = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < kLayerDim; i++) {
            lane0[i] = philox.uniformFloat(base + i, 0);
            lane1[i] = philox.uniformFloat(base + i, 1);
        }
        benchmark::DoNotOptimize(lane0);
        benchmark::DoNotOptimize(lane1);
        benchmark::ClobberMemory();
        base += kLayerDim;
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kLayerDim));
}
BENCHMARK(BM_PhiloxPerElement);

void
BM_PhiloxFill(benchmark::State &state)
{
    // The same draws, bitwise, from one batched fillUniform pass.
    Philox4x32 philox(11);
    float lane0[kLayerDim], lane1[kLayerDim];
    std::uint64_t base = 0;
    for (auto _ : state) {
        philox.fillUniform(base, kLayerDim, lane0, lane1);
        benchmark::DoNotOptimize(lane0);
        benchmark::DoNotOptimize(lane1);
        benchmark::ClobberMemory();
        base += kLayerDim;
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kLayerDim));
}
BENCHMARK(BM_PhiloxFill);

void
BM_TrainSequentialSubnet(benchmark::State &state)
{
    SearchSpace space("bench", SpaceFamily::Nlp, 48, 72, 7, 0.37);
    ParameterStore store(space, 7);
    NumericExecutor::Config config;
    config.batch = 160;
    NumericExecutor exec(store, config);
    UniformSampler sampler(space, 13);
    SubnetId id = 0;
    for (auto _ : state) {
        Subnet sn = sampler.next();
        benchmark::DoNotOptimize(exec.trainSequential(sn));
        (void)id;
    }
}
BENCHMARK(BM_TrainSequentialSubnet);

void
BM_EvaluateSubnet(benchmark::State &state)
{
    SearchSpace space("bench", SpaceFamily::Nlp, 48, 72, 7, 0.37);
    ParameterStore store(space, 7);
    NumericExecutor::Config config;
    NumericExecutor exec(store, config);
    UniformSampler sampler(space, 13);
    Subnet sn = sampler.next();
    for (auto _ : state)
        benchmark::DoNotOptimize(exec.evaluate(sn, 42));
}
BENCHMARK(BM_EvaluateSubnet);

void
BM_Search(benchmark::State &state)
{
    // The post-run search of a 4096-subnet NLP.c1 run on range(0)
    // threads. The weights' values do not change the cost, so the
    // store is materialized untrained.
    SearchSpace space = makeSpaceByName("NLP.c1");
    ParameterStore store(space, 7);
    store.materializeAll();
    NumericExecutor exec(store, NumericExecutor::Config{});
    UniformSampler sampler(space, 13);
    std::vector<Subnet> candidates;
    for (int i = 0; i < 4096; i++)
        candidates.push_back(sampler.next());
    const int threads = static_cast<int>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            searchBestSubnet(exec, candidates, 24.0, 4242, threads));
    }
    state.SetItemsProcessed(state.iterations() * 4096);  // candidates
}
BENCHMARK(BM_Search)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_SupernetHash(benchmark::State &state)
{
    SearchSpace space("bench", SpaceFamily::Nlp, 48,
                      static_cast<int>(state.range(0)), 7, 0.37);
    ParameterStore store(space, 7);
    store.supernetHash();  // materialize once
    for (auto _ : state)
        benchmark::DoNotOptimize(store.supernetHash());
}
BENCHMARK(BM_SupernetHash)->Arg(24)->Arg(72);

void
BM_MaterializeAll(benchmark::State &state)
{
    // A fresh NLP.c1 store initialized layer by layer: the set-up
    // cost every threaded run and serve job pays once.
    SearchSpace space = makeSpaceByName("NLP.c1");
    for (auto _ : state) {
        ParameterStore store(space, 7);
        store.materializeAll();
        benchmark::DoNotOptimize(store.materializedLayers());
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(space.numBlocks()) *
        static_cast<std::int64_t>(space.choicesPerBlock()));
}
BENCHMARK(BM_MaterializeAll)->Unit(benchmark::kMillisecond);

/** Operand vector for the reduction benchmarks: varied, bounded. */
std::vector<float>
reduceOperands(std::size_t n)
{
    std::vector<float> a(n);
    for (std::size_t i = 0; i < n; i++)
        a[i] = 0.001f * static_cast<float>(i % 97) - 0.05f;
    return a;
}

void
BM_ReduceSequential(benchmark::State &state)
{
    // The pre-kernel-layer baseline: one serial dependency chain.
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<float> a = reduceOperands(n);
    for (auto _ : state) {
        float acc = 0.0f;
        for (std::size_t i = 0; i < n; i++)
            acc += a[i];
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_ReduceSequential)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(65536);

void
BM_ReduceTree(benchmark::State &state)
{
    // The kernel layer's fixed-shape pairwise tree: independent
    // adjacent-pair adds the compiler can vectorize, same bits on
    // every platform.
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<float> a = reduceOperands(n);
    for (auto _ : state)
        benchmark::DoNotOptimize(kernels::treeSum(a.data(), n));
}
BENCHMARK(BM_ReduceTree)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(65536);

void
BM_ReduceTreeDot(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<float> a = reduceOperands(n);
    std::vector<float> b = reduceOperands(n);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            kernels::treeDot(a.data(), b.data(), n));
}
BENCHMARK(BM_ReduceTreeDot)->Arg(4096)->Arg(65536);

void
BM_CheckpointSave(benchmark::State &state)
{
    SearchSpace space("bench", SpaceFamily::Nlp, 48, 24, 7, 0.37);
    ParameterStore store(space, 7);
    store.supernetHash();  // materialize all layers
    for (auto _ : state)
        benchmark::DoNotOptimize(store.serialize());
}
BENCHMARK(BM_CheckpointSave);

} // namespace
} // namespace naspipe

BENCHMARK_MAIN();
