/**
 * @file
 * SharedStagePool — the StageWorker pipeline every threaded run uses.
 *
 * D worker threads (one per pipeline stage) and one completion
 * queue. Tasks carry their job's binding, so a worker resolves
 * the right search space / commit gate / numeric executor per task
 * and holds no job state itself. The search service (src/serve) runs
 * one pool for all its jobs — every tenant, or the solo threaded
 * executor's single in-process job — which makes a job's crash
 * recovery a pure coordinator-side operation (no thread is ever torn
 * down on a job fault).
 *
 * A worker whose task throws reports itself: the first such incident
 * is latched and a nullptr sentinel pushed into the completion queue,
 * so the coordinator learns about failures exactly where it already
 * blocks.
 */

#ifndef NASPIPE_EXEC_POOL_H
#define NASPIPE_EXEC_POOL_H

#include <memory>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "exec/stage_worker.h"
#include "exec/task_queue.h"

namespace naspipe {

class SharedStagePool
{
  public:
    struct Config {
        int numStages = 4;  ///< pipeline depth shared by every job
        /** Stage-inbox and completion-queue capacity; size to at
         *  least the bound jobs' summed in-flight windows. */
        std::size_t inboxCapacity = 16;
        /** Per-worker context manager and predictor. */
        StageContextConfig context;
        bool recordTrace = false;
    };

    /**
     * @param space the search space the workers' context managers size
     *        against (must outlive the pool)
     */
    SharedStagePool(const SearchSpace &space, Config config);

    ~SharedStagePool();

    SharedStagePool(const SharedStagePool &) = delete;
    SharedStagePool &operator=(const SharedStagePool &) = delete;

    /** Start the workers (the trace origin). */
    void start();

    /** Submit a bound forward into stage 0 (coordinator thread). */
    void dispatch(std::shared_ptr<const SubnetRun> run);

    /** Fully-retired subnets (stage 0 backward done) plus the
     *  nullptr sentinel of the first worker incident. */
    BoundedTaskQueue<std::shared_ptr<const SubnetRun>> &
    completions()
    {
        return *_completions;
    }

    /** Clean shutdown: drain-stop the workers and join. */
    void shutdown();

    /** Quiesce: abandon queued work and join (also after a worker
     *  incident). The coordinator pops no completion afterwards. */
    void abort();

    /** @name Per-stage transient fault latches (StageWorker::inject*)
     * @{ */
    void injectStall(int stage, int ticks)
    {
        workerAt(stage).injectStall(ticks);
    }
    void injectDegrade(int stage, int tasks)
    {
        workerAt(stage).injectDegrade(tasks);
    }
    /** @} */

    /** The first worker incident (valid after the nullptr
     *  sentinel). */
    std::string incidentDescription() const;

    /** Post-join per-stage accounting. */
    const StageWorker &worker(int stage) const
    {
        return *_workers[static_cast<std::size_t>(stage)];
    }

  private:
    /** Wake every worker: a worker's backward that committed asks
     *  for it once (worker thread). */
    void notifyAll();

    StageWorker &workerAt(int stage)
    {
        return *_workers[static_cast<std::size_t>(stage)];
    }

    /** A dying worker's sink: latch the first incident and push the
     *  sentinel (worker thread). */
    void reportIncident(int stage, const std::string &what);

    const Config _config;

    std::vector<std::unique_ptr<StageWorker>> _workers;
    std::unique_ptr<
        BoundedTaskQueue<std::shared_ptr<const SubnetRun>>>
        _completions;

    mutable RankedMutex _poolIncidentMu{LockRank::ServePoolIncident};
    int _incidentStage = -1;
    std::string _incidentReason;

    bool _started = false;
    bool _joined = false;
};

} // namespace naspipe

#endif // NASPIPE_EXEC_POOL_H
