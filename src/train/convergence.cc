#include "train/convergence.h"

#include <algorithm>
#include <utility>

#include "common/fan_out.h"
#include "common/logging.h"
#include "tensor/loss.h"

namespace naspipe {

std::vector<ConvergencePoint>
convergenceCurve(const std::vector<SubnetRecord> &records,
                 double scoreScale)
{
    NASPIPE_ASSERT(scoreScale > 0.0, "score scale must be positive");
    std::vector<std::pair<double, float>> raw;
    for (const SubnetRecord &r : records) {
        if (r.done)
            raw.emplace_back(r.completionSec, r.loss);
    }
    std::vector<ConvergencePoint> out;
    if (raw.empty())
        return out;
    // Completion order; equal (time, loss) pairs are interchangeable.
    std::sort(raw.begin(), raw.end());

    // Trailing-window smoothing of the loss, then score transform.
    std::vector<double> smooth(raw.size());
    double windowSum = 0.0;
    for (std::size_t i = 0; i < raw.size(); i++) {
        windowSum += raw[i].second;
        if (i >= kLossWindow)
            windowSum -= raw[i - kLossWindow].second;
        std::size_t n = std::min(i + 1, kLossWindow);
        smooth[i] = windowSum / static_cast<double>(n);
    }

    auto point = [&](std::size_t i) {
        return ConvergencePoint{raw[i].first, smooth[i],
                                lossToScore(smooth[i], scoreScale)};
    };
    std::size_t stride =
        std::max<std::size_t>(1, raw.size() / kCurvePoints);
    for (std::size_t i = 0; i < raw.size(); i += stride)
        out.push_back(point(i));
    // Always include the final point.
    if (out.back().timeSec != raw.back().first)
        out.push_back(point(raw.size() - 1));
    return out;
}

double
defaultScoreScale(SpaceFamily family)
{
    // BLEU-like scale for NLP, top-5-percent-like scale for CV.
    return family == SpaceFamily::Nlp ? 24.0 : 90.0;
}

SearchResult
searchBestSubnet(NumericExecutor &executor,
                 const std::vector<Subnet> &candidates,
                 double scoreScale, std::uint64_t evalSeed, int threads)
{
    NASPIPE_ASSERT(!candidates.empty(),
                   "search needs at least one candidate");
    NASPIPE_ASSERT(threads >= 1, "search needs at least one thread");
    // Workers only find() layers, which never inserts, so every
    // candidate layer is materialized first, sequentially — unless
    // the whole supernet already is, as after a run (collect() hashes
    // every layer).
    ParameterStore &store = executor.store();
    if (!store.fullyMaterialized()) {
        for (const Subnet &candidate : candidates)
            store.materializeLayers(candidate);
    }
    const NumericExecutor::EvalSet evalSet =
        executor.makeEvalSet(evalSeed);
    std::vector<float> losses(candidates.size());
    fanOutRanges(candidates.size(), threads,
                 [&](std::size_t lo, std::size_t hi) {
                     for (std::size_t i = lo; i < hi; i++) {
                         losses[i] =
                             executor.evaluate(candidates[i], evalSet);
                     }
                 });

    // The argmin reduces in candidate order on the caller, exactly
    // as a single sequential loop would.
    SearchResult out;
    out.allEvalLosses.reserve(candidates.size());
    bool haveBest = false;
    for (std::size_t i = 0; i < candidates.size(); i++) {
        const Subnet &candidate = candidates[i];
        float loss = losses[i];
        out.allEvalLosses.push_back(loss);
        bool better =
            !haveBest || loss < out.bestEvalLoss ||
            (loss == out.bestEvalLoss &&
             candidate.id() < out.best.id());
        if (better) {
            out.best = candidate;
            out.bestEvalLoss = loss;
            haveBest = true;
        }
    }
    out.accuracy = lossToScore(out.bestEvalLoss, scoreScale);
    return out;
}

} // namespace naspipe
