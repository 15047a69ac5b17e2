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
                      void(std::shared_ptr<const SubnetRun>)>());
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

    // Crash detection is state-based (deterministic); the wall hang
    // deadline is opt-in.
    fault::Watchdog::Config wc;
    wc.wallDeadline = _config.wallDeadline;
    wc.deadlineSeconds = _config.deadlineSeconds;
    wc.pollMs = _config.watchdogPollMs;
    std::vector<const fault::WorkerHeartbeat *> hearts;
    hearts.reserve(_workers.size());
    for (const auto &worker : _workers)
        hearts.push_back(&worker->heartbeat());
    _watchdog = std::make_unique<fault::Watchdog>(
        wc, std::move(hearts),
        [this](int worker, const std::string &reason) {
            {
                std::lock_guard<RankedMutex> lock(_poolIncidentMu);
                _incidentStage = worker;
                _incidentReason = reason;
            }
            _completions->push(nullptr);
        });
    _started = true;
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
    // Watchdog first: a clean drain flips every heartbeat to Exited,
    // which must not read as an incident.
    _watchdog.reset();
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
    // Watchdog first (it could re-fire on a dying worker), then abort
    // every worker — requestAbort closes each inbox, so a survivor
    // blocked pushing to a dead stage is released — then join.
    _watchdog.reset();
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
