/**
 * @file
 * Convergence curves and search-quality evaluation.
 *
 * Figure 4 plots score (BLEU for NLP, top-5 accuracy for CV) against
 * wall-clock time; Table 3 reports the final supernet loss and the
 * "search accuracy" — the converged score of the best subnet found in
 * the trained supernet. This module turns a run's per-subnet losses
 * and completion times into those series and performs the final
 * search over candidate subnets.
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
 * A subnet's entry in a run's record table (TrainingSession): its
 * training loss and absolute completion time, once done.
 */
struct SubnetRecord {
    double completionSec = 0.0;
    float loss = 0.0f;
    bool done = false;
};

/**
 * Trailing window, in subnets, of the curve's loss smoothing and of
 * the final supernet loss.
 */
constexpr std::size_t kLossWindow = 16;

/** Points a convergence curve is downsampled to (plus the last). */
constexpr std::size_t kCurvePoints = 64;

/**
 * The convergence curve of the done entries of @p records: ordered
 * by (completion time, loss), their losses smoothed over a trailing
 * kLossWindow, turned into scores under @p scoreScale, and
 * downsampled to at most kCurvePoints plus the final point.
 */
std::vector<ConvergencePoint>
convergenceCurve(const std::vector<SubnetRecord> &records,
                 double scoreScale);

/**
 * The score scale of a space family, which every run of it uses:
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
