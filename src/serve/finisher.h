/**
 * @file
 * JobFinisher — the search service's post-run search, off the
 * coordinator thread.
 *
 * When a job applies its last completion, the coordinator hands the
 * job's finish (TrainingSession::collect: the post-run search, the
 * supernet hash and the loss curve) to the finisher and goes back to
 * admitting and draining the other tenants. Finishes run on up to
 * max(1, hardware threads) long-lived threads that take work from one
 * FIFO. A thread starts only when every started one is busy, and all
 * of them live until the finisher is destroyed: a short-lived thread
 * per finish would leave one malloc arena behind per job, and so does
 * each thread that runs a finish, so none starts that is not needed.
 *
 * The finisher moves work and results only; it never reads service
 * or job state. The coordinator polls finished results without
 * blocking, or waits for one when it has nothing else to do. An
 * exception thrown by a finish (a NASPIPE_ASSERT) travels back with
 * its job ID, and the coordinator fails that job with it.
 */

#ifndef NASPIPE_SERVE_FINISHER_H
#define NASPIPE_SERVE_FINISHER_H

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/lock_rank.h"
#include "runtime/pipeline_runtime.h"

namespace naspipe {
namespace serve {

class JobFinisher
{
  public:
    /** One job's completed finish. */
    struct Finished {
        int jobId = 0;
        RunResult result;
        double seconds = 0.0;      ///< wall time the finish took
        std::exception_ptr error;  ///< set when the finish threw
    };

    JobFinisher() = default;
    /** Joins (every posted finish completes first). */
    ~JobFinisher();

    JobFinisher(const JobFinisher &) = delete;
    JobFinisher &operator=(const JobFinisher &) = delete;

    /** @name Coordinator side
     * @{ */
    /** Queue job @p jobId's finish @p work (FIFO). */
    void post(int jobId, std::function<RunResult()> work);
    /** Finishes posted and not yet handed back. */
    int outstanding() const { return _outstanding; }
    /** Every finish completed so far, in completion order; never
     *  blocks (empty when none). */
    std::vector<Finished> poll();
    /** As poll(), but blocks until at least one finish completed.
     *  Requires outstanding() > 0. */
    std::vector<Finished> wait();
    /** @} */

  private:
    void loop();
    std::vector<Finished> takeDone();

    int _outstanding = 0;  ///< coordinator-only
    std::vector<std::thread> _threads;  ///< coordinator-only

    mutable RankedMutex _finishMu{LockRank::ServeFinisher};
    std::condition_variable_any _workCv;  ///< work posted or stop
    std::condition_variable_any _doneCv;  ///< a finish completed
    std::deque<std::pair<int, std::function<RunResult()>>> _work;
    std::vector<Finished> _done;
    int _idle = 0;  ///< started threads waiting for work
    bool _stop = false;
};

} // namespace serve
} // namespace naspipe

#endif // NASPIPE_SERVE_FINISHER_H
