#include "train/convergence.h"

#include <algorithm>

#include "common/fan_out.h"
#include "common/logging.h"
#include "tensor/loss.h"

namespace naspipe {

ConvergenceTracker::ConvergenceTracker(double scoreScale,
                                       std::size_t smoothWindow)
    : _scoreScale(scoreScale), _smoothWindow(smoothWindow)
{
    NASPIPE_ASSERT(scoreScale > 0.0, "score scale must be positive");
    NASPIPE_ASSERT(smoothWindow >= 1, "smoothing window must be >= 1");
}

void
ConvergenceTracker::addSample(double timeSec, double loss)
{
    NASPIPE_ASSERT(timeSec >= 0.0 && loss >= 0.0,
                   "invalid convergence sample");
    ConvergencePoint p;
    p.timeSec = timeSec;
    p.loss = loss;
    p.score = lossToScore(loss, _scoreScale);
    _raw.push_back(p);
}

std::vector<ConvergencePoint>
ConvergenceTracker::curve(std::size_t maxPoints) const
{
    NASPIPE_ASSERT(maxPoints >= 1, "need >= 1 curve point");
    std::vector<ConvergencePoint> out;
    if (_raw.empty())
        return out;

    // Trailing-window smoothing of the loss, then score transform.
    std::vector<double> smooth(_raw.size());
    double windowSum = 0.0;
    for (std::size_t i = 0; i < _raw.size(); i++) {
        windowSum += _raw[i].loss;
        if (i >= _smoothWindow)
            windowSum -= _raw[i - _smoothWindow].loss;
        std::size_t n = std::min(i + 1, _smoothWindow);
        smooth[i] = windowSum / static_cast<double>(n);
    }

    std::size_t stride =
        std::max<std::size_t>(1, _raw.size() / maxPoints);
    for (std::size_t i = 0; i < _raw.size(); i += stride) {
        ConvergencePoint p;
        p.timeSec = _raw[i].timeSec;
        p.loss = smooth[i];
        p.score = lossToScore(smooth[i], _scoreScale);
        out.push_back(p);
    }
    // Always include the final point.
    if ((out.empty() ||
         out.back().timeSec != _raw.back().timeSec)) {
        ConvergencePoint p;
        p.timeSec = _raw.back().timeSec;
        p.loss = smooth.back();
        p.score = lossToScore(smooth.back(), _scoreScale);
        out.push_back(p);
    }
    return out;
}

double
ConvergenceTracker::finalLoss() const
{
    if (_raw.empty())
        return 0.0;
    std::size_t n = std::min(_smoothWindow, _raw.size());
    double total = 0.0;
    for (std::size_t i = _raw.size() - n; i < _raw.size(); i++)
        total += _raw[i].loss;
    return total / static_cast<double>(n);
}

double
ConvergenceTracker::finalScore() const
{
    return lossToScore(finalLoss(), _scoreScale);
}

void
ConvergenceTracker::clear()
{
    _raw.clear();
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
