/**
 * @file
 * google-benchmark micro-benchmarks of the scheduler machinery:
 * the paper claims the SCHEDULE() call costs <0.01 s against
 * second-scale subnet executions (§3.2 complexity analysis); these
 * benchmarks verify the claim holds across queue lengths and space
 * sizes, and also time the predictor, the balanced partitioner and
 * one subnet's context-manager bookkeeping on a stage worker.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "memory/context_manager.h"
#include "memory/swap_model.h"
#include "partition/partitioner.h"
#include "schedule/csp_scheduler.h"
#include "schedule/dependency.h"
#include "schedule/predictor.h"
#include "supernet/sampler.h"

namespace naspipe {
namespace {

/** Minimal StageInfo over a real space for benchmarking. */
class BenchStage : public StageInfo
{
  public:
    BenchStage(const SearchSpace &space, int queueLen,
               std::uint64_t seed)
        : _space(space), _deps(&space)
    {
        UniformSampler sampler(space, seed);
        // Half the queue's worth of unfinished precedents plus the
        // queued candidates themselves.
        int precedents = queueLen / 2;
        for (int i = 0; i < precedents + queueLen; i++) {
            Subnet sn = sampler.next();
            _deps.registerSubnet(sn);
            if (i >= precedents)
                _fwd.push_back(sn.id());
        }
        int perStage = space.numBlocks() / 8;
        _lo = 0;
        _hi = perStage - 1;
    }

    int stageIndex() const override { return 0; }
    int numStages() const override { return 8; }
    const std::vector<SubnetId> &fwdCandidates() const override
    {
        return _fwd;
    }
    const std::vector<SubnetId> &bwdCandidates() const override
    {
        return _bwd;
    }
    const Subnet &subnet(SubnetId id) const override
    {
        return _deps.subnet(id);
    }
    std::pair<int, int> blockRange(SubnetId) const override
    {
        return {_lo, _hi};
    }
    const DependencyTracker &deps() const override { return _deps; }
    bool upstreamWritesDone(SubnetId) const override { return true; }

  private:
    const SearchSpace &_space;
    DependencyTracker _deps;
    std::vector<SubnetId> _fwd;
    std::vector<SubnetId> _bwd;
    int _lo = 0;
    int _hi = 0;
};

void
BM_Schedule(benchmark::State &state)
{
    // NLP.c1-shaped space; queue length is the sweep variable (the
    // paper bounds |L_q| below ~30).
    SearchSpace space("bench", SpaceFamily::Nlp, 48, 72, 7, 0.37);
    BenchStage stage(space, static_cast<int>(state.range(0)), 11);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            CspPolicy::schedulableForward(stage, -1, true));
    }
}
BENCHMARK(BM_Schedule)->Arg(4)->Arg(8)->Arg(16)->Arg(30)->Arg(64);

void
BM_ScheduleBySpaceSize(benchmark::State &state)
{
    SearchSpace space("bench", SpaceFamily::Nlp, 48,
                      static_cast<int>(state.range(0)), 7, 0.37);
    BenchStage stage(space, 16, 11);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            CspPolicy::schedulableForward(stage, -1, true));
    }
}
BENCHMARK(BM_ScheduleBySpaceSize)->Arg(24)->Arg(48)->Arg(72)->Arg(96);

void
BM_PolicyPick(benchmark::State &state)
{
    SearchSpace space("bench", SpaceFamily::Nlp, 48, 72, 7, 0.37);
    BenchStage stage(space, 16, 11);
    CspPolicy policy;
    for (auto _ : state)
        benchmark::DoNotOptimize(policy.pick(stage));
}
BENCHMARK(BM_PolicyPick);

void
BM_PredictorBeforeBackward(benchmark::State &state)
{
    SearchSpace space("bench", SpaceFamily::Nlp, 48, 72, 7, 0.37);
    BenchStage stage(space, 16, 11);
    Predictor predictor;
    int fetches = 0;
    auto fetch = [&fetches](const Task &, PredictReason) {
        fetches++;
    };
    for (auto _ : state) {
        predictor.beforeBackward(stage, 0, {}, fetch);
    }
    benchmark::DoNotOptimize(fetches);
}
BENCHMARK(BM_PredictorBeforeBackward);

void
BM_BalancedPartition(benchmark::State &state)
{
    SearchSpace space("bench", SpaceFamily::Nlp, 48, 72, 7, 0.37);
    Partitioner part(space, 160);
    UniformSampler sampler(space, 13);
    Subnet sn = sampler.next();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            part.balanced(sn, static_cast<int>(state.range(0))));
    }
}
BENCHMARK(BM_BalancedPartition)->Arg(4)->Arg(8)->Arg(16);

void
BM_DependencyDensity(benchmark::State &state)
{
    SearchSpace space("bench", SpaceFamily::Nlp, 48, 72, 7, 0.37);
    UniformSampler sampler(space, 17);
    std::vector<Subnet> subnets;
    for (int i = 0; i < 64; i++)
        subnets.push_back(sampler.next());
    for (auto _ : state) {
        double density = 0;
        for (std::size_t i = 1; i < subnets.size(); i++)
            density += subnets[i - 1].sharesLayerWith(subnets[i]);
        benchmark::DoNotOptimize(density);
    }
}
BENCHMARK(BM_DependencyDensity);

void
BM_ContextManagerSubnet(benchmark::State &state)
{
    // One NLP.c1 subnet on a lone threaded worker (the whole supernet
    // on one stage) under PredictivePrefetch at the solo budget. Per
    // subnet the worker makes five prefetch scans (inbox arrival plus
    // the two queued forwards before the forward and again before the
    // backward), two ensureResident passes and one evictSubnet, each
    // call advancing the logical clock like StageWorker.
    SearchSpace space = makeSpaceByName("NLP.c1");
    const std::uint64_t budget =
        3 * CapacityPlanner(space, GpuConfig{})
                .plan(naspipeSystem(), 1)
                .residentParamBytesPerGpu;
    ContextManager ctx(space, MemoryMode::PredictivePrefetch, budget);
    UniformSampler sampler(space, 19);
    std::vector<Subnet> ring;
    for (int i = 0; i < 64; i++)
        ring.push_back(sampler.next());
    const int hi = space.numBlocks() - 1;
    const std::size_t n = ring.size();
    std::size_t k = 0;
    Tick clock = 0;
    for (auto _ : state) {
        const Subnet &run = ring[k];
        const Subnet &next = ring[(k + 1) % n];
        const Subnet &after = ring[(k + 2) % n];
        ctx.prefetch(run, 0, hi, ++clock);  // inbox arrival
        ctx.prefetch(next, 0, hi, ++clock);
        ctx.prefetch(after, 0, hi, ++clock);
        ctx.ensureResident(run, 0, hi, ++clock);  // forward
        ctx.prefetch(next, 0, hi, ++clock);
        ctx.prefetch(after, 0, hi, ++clock);
        ctx.ensureResident(run, 0, hi, ++clock);  // backward
        ctx.evictSubnet(run, 0, hi, clock);
        k = (k + 1) % n;
    }
    benchmark::DoNotOptimize(ctx.memory().residentBytes());
    state.counters["hit_rate"] = ctx.memory().hitStats().rate();
    state.counters["forced_evictions"] = benchmark::Counter(
        static_cast<double>(ctx.stats().forcedEvictions),
        benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ContextManagerSubnet);

} // namespace
} // namespace naspipe

BENCHMARK_MAIN();
