#include "exec/pool.h"

#include "common/logging.h"

namespace naspipe {

SharedStagePool::SharedStagePool(const SearchSpace &space,
                                 Config config)
    : _config(config)
{
    NASPIPE_ASSERT(_config.numStages >= 1,
                   "pool needs >= 1 stage, got ", _config.numStages);
    NASPIPE_ASSERT(_config.inboxCapacity >= 1,
                   "pool inbox capacity must be >= 1");
    _completions = std::make_unique<
        BoundedTaskQueue<std::shared_ptr<const SubnetRun>>>(
        _config.inboxCapacity);
    for (int k = 0; k < _config.numStages; k++) {
        _workers.push_back(std::make_unique<StageWorker>(
            k, _config.numStages, space, _config.inboxCapacity,
            _config.context));
    }
    for (int k = 0; k < _config.numStages; k++) {
        _workers[static_cast<std::size_t>(k)]->connect(
            k + 1 < _config.numStages
                ? _workers[static_cast<std::size_t>(k) + 1].get()
                : nullptr,
            k > 0 ? _workers[static_cast<std::size_t>(k) - 1].get()
                  : nullptr,
            k == 0
                ? [this](std::shared_ptr<const SubnetRun> run) {
                      _completions->push(std::move(run));
                  }
                : std::function<
                      void(std::shared_ptr<const SubnetRun>)>(),
            [this](int stage, const std::string &what) {
                reportIncident(stage, what);
            });
    }
}

SharedStagePool::~SharedStagePool()
{
    if (_started && !_joined)
        abort();
}

void
SharedStagePool::start()
{
    NASPIPE_ASSERT(!_started, "pool already started");
    obs::TimePoint epoch = obs::now();
    for (auto &worker : _workers)
        worker->start(epoch, _config.recordTrace);
    _started = true;
}

void
SharedStagePool::reportIncident(int stage, const std::string &what)
{
    {
        std::lock_guard<RankedMutex> lock(_poolIncidentMu);
        if (_incidentStage >= 0)
            return;  // one incident per pool: the first is the cause
        _incidentStage = stage;
        _incidentReason = what;
    }
    _completions->push(nullptr);
}

void
SharedStagePool::dispatch(std::shared_ptr<const SubnetRun> run)
{
    NASPIPE_ASSERT(_started, "dispatch into a stopped pool");
    NASPIPE_ASSERT(run && run->job,
                   "pool tasks must carry a job binding");
    _workers[0]->submit(
        ExecTask{ExecTask::Kind::Forward, std::move(run)});
}

void
SharedStagePool::notifyAll()
{
    for (auto &worker : _workers)
        worker->notify();
}

void
SharedStagePool::shutdown()
{
    if (!_started || _joined)
        return;
    for (auto &worker : _workers)
        worker->requestStop();
    for (auto &worker : _workers)
        worker->join();
    _joined = true;
}

void
SharedStagePool::abort()
{
    if (!_started || _joined)
        return;
    // Nobody pops completions any more: close the queue so neither
    // stage 0 nor a dying worker's sentinel can block on it. Then
    // abort every worker — requestAbort closes each inbox, so a
    // survivor blocked pushing to a dead stage is released — and join.
    _completions->close();
    for (auto &worker : _workers)
        worker->requestAbort();
    for (auto &worker : _workers)
        worker->join();
    _joined = true;
}

std::string
SharedStagePool::incidentDescription() const
{
    std::lock_guard<RankedMutex> lock(_poolIncidentMu);
    if (_incidentStage < 0)
        return "no incident";
    return "stage " + std::to_string(_incidentStage) + ": " +
           _incidentReason;
}

} // namespace naspipe
