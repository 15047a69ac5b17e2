/**
 * @file
 * The post-run search against a reference written here: the plain
 * sequential algorithm, one candidate at a time, the eval batches
 * rebuilt for every candidate and pushed through single-column
 * layerForward.
 * searchBestSubnet must match it bit for bit at every thread count.
 * Carries the exec label, so the TSan job repeats the fan-out.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/fan_out.h"
#include "common/rng.h"
#include "supernet/sampler.h"
#include "tensor/kernels/reduce.h"
#include "tensor/kernels/tanh.h"
#include "tensor/loss.h"
#include "train/convergence.h"

namespace naspipe {
namespace {

using kernels::PrecisionMode;

constexpr std::uint64_t kEvalSeed = 4242;
constexpr std::uint64_t kDataSeed = 99;
constexpr int kThreadCounts[] = {1, 2, 3, 7};

std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

/**
 * The reference: the single-column evaluate, spelled out —
 * eval inputs and teacher targets rebuilt per candidate, two Philox
 * draws per teacher element, one layerForward per batch and layer.
 */
float
referenceEvaluate(ParameterStore &store, const Subnet &subnet,
                  std::uint64_t dataSeed, PrecisionMode mode)
{
    constexpr int kBatches = 4;
    Philox4x32 philox(deriveSeed(kEvalSeed, "eval"));
    Philox4x32 teacher(deriveSeed(dataSeed, "teacher"));
    float losses[kBatches];
    Tensor act(kLayerDim);
    Tensor next(kLayerDim);
    Tensor target(kLayerDim);
    for (int e = 0; e < kBatches; e++) {
        std::uint64_t base = static_cast<std::uint64_t>(e) * 2 *
                             kLayerDim;
        for (std::size_t i = 0; i < kLayerDim; i++)
            act[i] = 2.0f * philox.uniformFloat(base + i) - 1.0f;
        kernels::quantizeInPlace(mode, act.data().data(), kLayerDim);
        for (std::size_t i = 0; i < kLayerDim; i++) {
            float a = 0.5f + teacher.uniformFloat(i, 0);
            float b = teacher.uniformFloat(i, 1) - 0.5f;
            target[i] = kernels::tanh(a * act[i] + b);
        }
        kernels::quantizeInPlace(mode, target.data().data(), kLayerDim);
        for (int blk = 0; blk < subnet.size(); blk++) {
            if (!store.space().parameterized(blk, subnet.choice(blk)))
                continue;
            layerForward(store.peek(subnet.layer(blk)), act, next);
            kernels::quantizeInPlace(mode, next.data().data(),
                                     kLayerDim);
            std::swap(act.data(), next.data());
        }
        losses[e] = kernels::quantize(mode, mseLoss(act, target));
    }
    return kernels::treeSum(losses, kBatches) /
           static_cast<float>(kBatches);
}

struct Reference {
    std::vector<double> losses;
    SubnetId best = -1;
};

/** Sequential argmin, the lower ID winning ties. */
Reference
referenceSearch(ParameterStore &store,
                const std::vector<Subnet> &candidates,
                std::uint64_t dataSeed, PrecisionMode mode)
{
    Reference ref;
    double bestLoss = 0.0;
    for (const Subnet &candidate : candidates) {
        float loss = referenceEvaluate(store, candidate, dataSeed, mode);
        ref.losses.push_back(loss);
        if (ref.best < 0 || loss < bestLoss ||
            (loss == bestLoss && candidate.id() < ref.best)) {
            ref.best = candidate.id();
            bestLoss = loss;
        }
    }
    return ref;
}

void
expectMatches(const SearchResult &got, const Reference &want,
              const std::string &what)
{
    ASSERT_EQ(got.allEvalLosses.size(), want.losses.size()) << what;
    for (std::size_t i = 0; i < want.losses.size(); i++) {
        ASSERT_EQ(bitsOf(got.allEvalLosses[i]), bitsOf(want.losses[i]))
            << what << ": candidate " << i << " "
            << got.allEvalLosses[i] << " vs " << want.losses[i];
    }
    EXPECT_EQ(got.best.id(), want.best) << what;
}

/** A trained NLP.c1 supernet: the post-run search's real input. */
struct TrainedRun {
    SearchSpace space = makeSpaceByName("NLP.c1");
    ParameterStore store;
    NumericExecutor exec;
    std::vector<Subnet> sampled;

    explicit TrainedRun(PrecisionMode mode)
        : store(space, 11, mode), exec(store, configFor(mode))
    {
        UniformSampler sampler(space, 3);
        for (int i = 0; i < 48; i++) {
            sampled.push_back(sampler.next());
            exec.trainSequential(sampled.back());
        }
    }

    static NumericExecutor::Config
    configFor(PrecisionMode mode)
    {
        NumericExecutor::Config config;
        config.dataSeed = kDataSeed;
        config.batch = 16;
        config.precision = mode;
        return config;
    }
};

class SearchEquivalence : public ::testing::TestWithParam<PrecisionMode>
{
};

TEST_P(SearchEquivalence, BitwiseEqualToReferenceAtEveryThreadCount)
{
    TrainedRun run(GetParam());
    Reference want =
        referenceSearch(run.store, run.sampled, kDataSeed, GetParam());
    for (int threads : kThreadCounts) {
        SearchResult got = searchBestSubnet(run.exec, run.sampled, 24.0,
                                            kEvalSeed, threads);
        expectMatches(got, want,
                      std::string(kernels::precisionModeName(GetParam())) +
                          " threads=" + std::to_string(threads));
    }
}

TEST_P(SearchEquivalence, SingleCandidateWrapperIsTheSamePath)
{
    TrainedRun run(GetParam());
    for (std::size_t i = 0; i < 6; i++) {
        float got = run.exec.evaluate(run.sampled[i], kEvalSeed);
        float want = referenceEvaluate(run.store, run.sampled[i],
                                       kDataSeed, GetParam());
        EXPECT_EQ(bitsOf(got), bitsOf(want)) << "candidate " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Precisions, SearchEquivalence,
                         ::testing::Values(PrecisionMode::Fp32,
                                           PrecisionMode::Fp16Rne),
                         [](const auto &info) {
                             return std::string(
                                 info.param == PrecisionMode::Fp32
                                     ? "Fp32"
                                     : "Fp16Rne");
                         });

TEST(SearchFanOut, MaterializesUntouchedLayersBeforeFanningOut)
{
    // Nothing is trained, so no layer exists yet: the search itself
    // must materialize every candidate layer before any worker runs
    // its const lookup. More threads than candidates.
    SearchSpace space = makeTinySpace();
    UniformSampler sampler(space, 9);
    std::vector<Subnet> candidates;
    for (int i = 0; i < 5; i++)
        candidates.push_back(sampler.next());

    ParameterStore refStore(space, 7);
    Reference want = referenceSearch(refStore, candidates, kDataSeed,
                                     PrecisionMode::Fp32);
    for (int threads : kThreadCounts) {
        ParameterStore store(space, 7);
        NumericExecutor exec(store, TrainedRun::configFor(
                                        PrecisionMode::Fp32));
        ASSERT_EQ(store.materializedLayers(), 0u);
        SearchResult got =
            searchBestSubnet(exec, candidates, 24.0, kEvalSeed, threads);
        expectMatches(got, want, "threads=" + std::to_string(threads));
        // Exactly the layers the sequential reference touched.
        EXPECT_EQ(store.materializedLayers(),
                  refStore.materializedLayers());
    }
}

TEST(SearchFanOut, LowerIdWinsATieAtEveryThreadCount)
{
    SearchSpace space = makeSpaceByName("NLP.c1");
    ParameterStore store(space, 7);
    NumericExecutor exec(store,
                         TrainedRun::configFor(PrecisionMode::Fp32));
    UniformSampler sampler(space, 21);
    std::vector<Subnet> candidates;
    for (int i = 0; i < 6; i++) {
        candidates.push_back(Subnet(static_cast<SubnetId>(10 + i),
                                    sampler.next().choices()));
    }
    // Give ID 9 (index 2) and ID 2 (index 6) the choices of the
    // candidate the reference ranks best, so the minimum ties across
    // ranges at 2, 3 and 7 threads and ID 2 must win every time.
    Reference plain = referenceSearch(store, candidates, kDataSeed,
                                      PrecisionMode::Fp32);
    std::vector<std::uint16_t> bestChoices =
        candidates[static_cast<std::size_t>(plain.best - 10)].choices();
    candidates[2] = Subnet(9, bestChoices);
    candidates.push_back(Subnet(2, bestChoices));

    Reference want = referenceSearch(store, candidates, kDataSeed,
                                     PrecisionMode::Fp32);
    ASSERT_EQ(want.best, 2);
    for (int threads : kThreadCounts) {
        SearchResult got =
            searchBestSubnet(exec, candidates, 24.0, kEvalSeed, threads);
        expectMatches(got, want, "threads=" + std::to_string(threads));
        EXPECT_EQ(got.allEvalLosses[2], got.allEvalLosses.back());
    }
}

TEST(FanOutRanges, CoversEveryIndexOnceInContiguousRanges)
{
    for (std::size_t n : {0u, 1u, 2u, 5u, 64u, 4097u}) {
        for (int threads : {1, 2, 3, 7, 64}) {
            std::vector<int> hits(n, 0);
            std::vector<std::pair<std::size_t, std::size_t>> ranges(
                static_cast<std::size_t>(threads));
            std::atomic<int> calls{0};
            fanOutRanges(n, threads, [&](std::size_t lo, std::size_t hi) {
                int k = calls.fetch_add(1);
                ranges[static_cast<std::size_t>(k)] = {lo, hi};
                for (std::size_t i = lo; i < hi; i++)
                    hits[i]++;
            });
            for (std::size_t i = 0; i < n; i++)
                ASSERT_EQ(hits[i], 1) << "n=" << n << " index " << i;
            std::size_t parts =
                std::min<std::size_t>(n, static_cast<std::size_t>(threads));
            EXPECT_EQ(calls.load(), static_cast<int>(parts));
            for (int k = 0; k < calls.load(); k++) {
                auto [lo, hi] = ranges[static_cast<std::size_t>(k)];
                EXPECT_LT(lo, hi);
                EXPECT_LE(hi - lo, n / parts + 1);
                EXPECT_GE(hi - lo, n / parts);
            }
        }
    }
}

TEST(FanOutRanges, RethrowsTheLowestRangesExceptionOnTheCaller)
{
    // Ranges [3, 6) and [6, 9) throw on helper threads; only the
    // caller's range [0, 3) writes.
    std::set<std::size_t> done;
    try {
        fanOutRanges(9, 3, [&](std::size_t lo, std::size_t hi) {
            if (lo > 0)
                throw std::logic_error("range " + std::to_string(lo));
            for (std::size_t i = lo; i < hi; i++)
                done.insert(i);
        });
        FAIL() << "a helper's exception was swallowed";
    } catch (const std::logic_error &e) {
        EXPECT_EQ(std::string(e.what()), "range 3");
    }
    // The caller's own range still ran to completion.
    EXPECT_EQ(done, (std::set<std::size_t>{0, 1, 2}));
}

} // namespace
} // namespace naspipe
