/**
 * @file
 * Convergence tracking and search-quality evaluation.
 *
 * Figure 4 plots score (BLEU for NLP, top-5 accuracy for CV) against
 * wall-clock time; Table 3 reports the final supernet loss and the
 * "search accuracy" — the converged score of the best subnet found in
 * the trained supernet. This module turns the numeric executor's
 * loss trajectory into those series and performs the final search
 * over candidate subnets.
 */

#ifndef NASPIPE_TRAIN_CONVERGENCE_H
#define NASPIPE_TRAIN_CONVERGENCE_H

#include <cstdint>
#include <vector>

#include "train/numeric_executor.h"

namespace naspipe {

/** One point on a convergence curve. */
struct ConvergencePoint {
    double timeSec = 0.0;
    double loss = 0.0;
    double score = 0.0;
};

/**
 * Accumulates (time, loss) samples and renders smoothed score
 * curves.
 */
class ConvergenceTracker
{
  public:
    /**
     * @param scoreScale asymptotic score scale (e.g. ~24 "BLEU" for
     *        NLP spaces, ~0.9 "top-5" for CV spaces)
     * @param smoothWindow trailing window for loss smoothing
     */
    explicit ConvergenceTracker(double scoreScale,
                                std::size_t smoothWindow = 16);

    /** Record the loss of a subnet finishing at @p timeSec. */
    void addSample(double timeSec, double loss);

    /** Number of samples so far. */
    std::size_t samples() const { return _raw.size(); }

    /** Smoothed curve, downsampled to at most @p maxPoints. */
    std::vector<ConvergencePoint> curve(std::size_t maxPoints) const;

    /** Smoothed loss over the trailing window (supernet loss). */
    double finalLoss() const;

    /** Score corresponding to finalLoss(). */
    double finalScore() const;

    double scoreScale() const { return _scoreScale; }

    void clear();

  private:
    double _scoreScale;
    std::size_t _smoothWindow;
    std::vector<ConvergencePoint> _raw;
};

/**
 * Family default for the score scale when a run does not set one:
 * BLEU-like for NLP spaces, top-5-percent-like for CV spaces. Both
 * runtimes (simulated and threaded) share this so a run is scored
 * identically regardless of executor.
 */
double defaultScoreScale(SpaceFamily family);

/** Result of the post-training search over candidates. */
struct SearchResult {
    Subnet best;
    double bestEvalLoss = 0.0;
    double accuracy = 0.0;  ///< score of the best subnet
    std::vector<double> allEvalLosses;  ///< per candidate, same order
};

/**
 * Evaluate @p candidates against the trained store and return the
 * best (lowest held-out loss); ties break on the lower sequence ID so
 * the search itself is deterministic. Candidates fan out over
 * @p threads threads in contiguous ID ranges (the caller runs the
 * first); the result is bitwise the same at every thread count. The
 * store must not be written during the call.
 */
SearchResult searchBestSubnet(NumericExecutor &executor,
                              const std::vector<Subnet> &candidates,
                              double scoreScale,
                              std::uint64_t evalSeed = 4242,
                              int threads = 1);

} // namespace naspipe

#endif // NASPIPE_TRAIN_CONVERGENCE_H
