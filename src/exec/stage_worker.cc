#include "exec/stage_worker.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"

namespace naspipe {

namespace {

/**
 * Queued forwards prefetched before each task (Algorithm 3 lines 4-8
 * and 16-18). The cache budget plans for the ~3 moving contexts of
 * §3.3: the task being executed plus the two that run after it.
 */
constexpr std::size_t kPrefetchDepth = 2;

} // namespace

StageWorker::StageWorker(int stage, int numStages,
                         const SearchSpace &space,
                         std::size_t inboxCapacity, ContextConfig context)
    : _stage(stage), _numStages(numStages), _inbox(inboxCapacity),
      _ctx(space, context.mode, context.budgetBytes),
      _predictor(context.predictor)
{
    NASPIPE_ASSERT(stage >= 0 && stage < numStages,
                   "stage index out of range");
}

void
StageWorker::connect(
    StageWorker *next, StageWorker *prev,
    std::function<void(std::shared_ptr<const SubnetRun>)> complete,
    std::function<void(int, const std::string &)> died)
{
    _next = next;
    _prev = prev;
    _complete = std::move(complete);
    _died = std::move(died);
}

void
StageWorker::start(obs::TimePoint epoch, bool recordTrace)
{
    _epoch = epoch;
    _recordTrace = recordTrace;
    _thread = std::thread([this] { run(); });
}

void
StageWorker::submit(ExecTask task)
{
    _inbox.push(std::move(task));
    notify();
}

void
StageWorker::notify()
{
    {
        std::lock_guard<RankedMutex> lock(_signalMu);
        _signals++;
    }
    _cv.notify_one();
}

void
StageWorker::requestStop()
{
    {
        std::lock_guard<RankedMutex> lock(_signalMu);
        _stop = true;
        _signals++;
    }
    _cv.notify_one();
}

void
StageWorker::requestAbort()
{
    {
        std::lock_guard<RankedMutex> lock(_signalMu);
        _stop = true;
        _abort = true;
        _signals++;
    }
    // Closing the inbox releases any peer blocked pushing into it —
    // without this, quiescing after a crash could wedge a surviving
    // worker mid-submit.
    _inbox.close();
    _cv.notify_one();
}

void
StageWorker::join()
{
    if (_thread.joinable())
        _thread.join();
}

std::pair<int, int>
StageWorker::blockRange(const SubnetRun &run) const
{
    return {run.partition.firstBlock(_stage),
            run.partition.lastBlock(_stage)};
}

double
StageWorker::secondsSinceEpoch() const
{
    return obs::secondsSince(_epoch);
}

void
StageWorker::prefetchRun(const SubnetRun &run)
{
    auto [lo, hi] = blockRange(run);
    if (lo <= hi)
        _ctx.prefetch(run.subnet, lo, hi, ++_clock);
}

void
StageWorker::prefetchQueued()
{
    if (!_predictor)
        return;
    // The task about to run has already left _fwd, so the head of the
    // sorted queue is exactly the forwards that run next.
    std::size_t depth = std::min(kPrefetchDepth, _fwd.size());
    for (std::size_t i = 0; i < depth; i++)
        prefetchRun(*_fwd[i]);
}

void
StageWorker::drainInbox()
{
    std::deque<ExecTask> fresh;
    _inbox.drainInto(fresh);
    for (ExecTask &task : fresh) {
        // An arriving task is this stage's advance notice ("status
        // passed from other stages", §3.3): prefetch its context
        // before anything executes. Fresh subnets entering stage 0
        // are gated to ~3 queued contexts like the simulator's entry
        // retrieval, so a backed-up entry queue does not balloon the
        // cache.
        if (_predictor &&
            (task.kind == ExecTask::Kind::Backward || _stage > 0 ||
             _fwd.size() < 3)) {
            prefetchRun(*task.run);
        }
        if (task.kind == ExecTask::Kind::Backward) {
            _bwd.push_back(std::move(task.run));
        } else {
            // Keep forwards sorted by dispatch ticket so the
            // runnable scan walks Algorithm 2's lowest-first order.
            // Single-tenant runs set ticket = sequence ID; a
            // multi-tenant pool's tickets encode the serve
            // scheduler's deterministic cross-job admission order.
            std::uint64_t ticket = task.run->ticket;
            auto at = std::lower_bound(
                _fwd.begin(), _fwd.end(), ticket,
                [](const RunPtr &run, std::uint64_t v) {
                    return run->ticket < v;
                });
            _fwd.insert(at, std::move(task.run));
        }
    }
}

int
StageWorker::findRunnableForward(std::uint64_t *blockedOn)
{
    for (std::size_t i = 0; i < _fwd.size(); i++) {
        const SubnetRun &run = *_fwd[i];
        bool ready = true;
        for (const CommitGate::Claim &claim :
             run.claims[static_cast<std::size_t>(_stage)]) {
            if (!run.job->gate->readable(claim)) {
                ready = false;
                // Attribute the stall to the chain holding the
                // lowest-sequence candidate: per the liveness
                // argument it is the one whose commit this stage is
                // really waiting for.
                if (i == 0 && blockedOn)
                    *blockedOn = claim.layerKey;
                break;
            }
        }
        if (ready)
            return static_cast<int>(i);
    }
    return -1;
}

void
StageWorker::execForward(RunPtr task)
{
    // An armed degrade latch slows this task down (scheduling-neutral:
    // CSP order is unaffected, only wall time stretches).
    if (_degradeTasks.load() > 0 && _degradeTasks.fetch_sub(1) > 0)
        for (int i = 0; i < 64; i++)
            std::this_thread::yield();
    const SubnetRun &run = *task;
    auto [lo, hi] = blockRange(run);
    // Algorithm 1 line 21: predictor runs after the pop, before the
    // forward executes — the forwards queued next get their context
    // fetched while this one computes (Algorithm 3 lines 16-18).
    prefetchQueued();
    if (lo <= hi)
        _ctx.ensureResident(run.subnet, lo, hi, ++_clock);
    NumericExecutor *exec = run.job->exec;
    double start = secondsSinceEpoch();
    // CSP systems only (ParallelRuntime::supported): every update
    // lands immediately.
    if (exec && lo <= hi)
        exec->forwardStage(run.subnet, lo, hi,
                           UpdateSemantics::Immediate, _stage);
    if (exec && _stage == _numStages - 1)
        exec->computeLoss(run.subnet);
    double end = secondsSinceEpoch();
    _stats.busySec += end - start;
    _stats.forwards++;
    if (_recordTrace) {
        _traceRecords.push_back(TraceRecord{
            ticksFromSec(start), ticksFromSec(end), _stage,
            TraceKind::Forward, run.subnet.id(), "threads"});
    }

    if (_stage + 1 < _numStages) {
        _next->submit(
            ExecTask{ExecTask::Kind::Forward, std::move(task)});
    } else {
        // The last stage turns the forward around.
        _bwd.push_back(std::move(task));
    }
}

void
StageWorker::execBackward(RunPtr task)
{
    if (_degradeTasks.load() > 0 && _degradeTasks.fetch_sub(1) > 0)
        for (int i = 0; i < 64; i++)
            std::this_thread::yield();
    const SubnetRun &run = *task;
    auto [lo, hi] = blockRange(run);
    // Algorithm 1 line 6: predictor runs before the backward. The
    // commit this backward is about to publish unblocks the lowest
    // queued forwards (Algorithm 3 lines 4-8) — re-fetch their
    // contexts if the budget evicted them.
    prefetchQueued();
    if (lo <= hi)
        _ctx.ensureResident(run.subnet, lo, hi, ++_clock);
    NumericExecutor *exec = run.job->exec;
    double start = secondsSinceEpoch();
    if (exec && lo <= hi)
        exec->backwardStage(run.subnet, lo, hi,
                            UpdateSemantics::Immediate, _stage);
    // Commit strictly after the optimizer steps: the release edge in
    // CommitGate::commit is what publishes the new parameter bytes to
    // the next activator's forward read.
    const std::vector<CommitGate::Claim> &claims =
        run.claims[static_cast<std::size_t>(_stage)];
    for (const CommitGate::Claim &claim : claims)
        run.job->gate->commit(claim, _stage);
    double end = secondsSinceEpoch();
    _stats.busySec += end - start;
    _stats.backwards++;
    if (!claims.empty()) {
        if (_lastCommitSec >= 0.0)
            _obs.commitGapSeconds.record(end - _lastCommitSec);
        _lastCommitSec = end;
    }
    if (_recordTrace) {
        _traceRecords.push_back(TraceRecord{
            ticksFromSec(start), ticksFromSec(end), _stage,
            TraceKind::Backward, run.subnet.id(), "threads"});
    }

    // The backward pass retires this subnet's stage context (§3.3):
    // evict it so the resident set stays at the ~3 moving contexts
    // the budget plans for.
    if (lo <= hi)
        _ctx.evictSubnet(run.subnet, lo, hi, _clock);

    if (_stage > 0) {
        _prev->submit(
            ExecTask{ExecTask::Kind::Backward, std::move(task)});
    } else {
        _complete(std::move(task));
    }
}

void
StageWorker::stallFor(int ticks)
{
    // A stall models a transient slowdown: the worker stays alive
    // but executes nothing for a bounded number of short waits.
    // Bounded waits — not a condition wait — so the stall ends even
    // if no signal ever arrives; a stop request ends it early.
    std::unique_lock<RankedMutex> lock(_signalMu);
    for (int i = 0; i < ticks && !_stop; i++)
        _cv.wait_for(lock, std::chrono::milliseconds(1));
}

void
StageWorker::run()
{
    // A task that throws kills this worker, not the process: it takes
    // no more work (its inbox closes, as on abort, so no peer blocks
    // pushing to it) and reports itself to the pool.
    std::string what;
    try {
        runLoop();
        return;
    } catch (const std::exception &e) {
        what = e.what();
    } catch (...) {
        what = "unknown exception";
    }
    _inbox.close();
    _died(_stage, what);
}

void
StageWorker::runLoop()
{
    for (;;) {
        // Snapshot the signal counter *before* scanning so a commit
        // or submit that lands mid-scan prevents the sleep below.
        std::uint64_t seen;
        bool stopping;
        bool aborting;
        {
            std::lock_guard<RankedMutex> lock(_signalMu);
            seen = _signals;
            stopping = _stop;
            aborting = _abort;
        }
        // An aborted worker abandons everything (its inbox closes so
        // no peer blocks pushing to it) and exits as a clean
        // supervised shutdown.
        if (aborting) {
            _inbox.close();
            return;
        }
        int stall = _stallTicks.exchange(0);
        if (stall > 0)
            stallFor(stall);
        drainInbox();

        if (!_bwd.empty()) {
            RunPtr task = std::move(_bwd.front());
            _bwd.pop_front();
            execBackward(std::move(task));
            continue;
        }
        std::uint64_t blockedOn = 0;
        int idx = findRunnableForward(&blockedOn);
        if (idx >= 0) {
            RunPtr task = std::move(
                _fwd[static_cast<std::size_t>(idx)]);
            _fwd.erase(_fwd.begin() + idx);
            execForward(std::move(task));
            continue;
        }

        if (stopping && _fwd.empty() && _inbox.empty())
            break;

        // Nothing runnable: an unreadable forward means we are
        // waiting on the commit gate; truly empty queues are idle
        // (pipeline fill/drain bubbles).
        bool gateWait = !_fwd.empty();
        if (gateWait)
            _stats.deferrals++;
        else
            _stats.idleWakeups++;
        obs::TimePoint waitStart = obs::now();
        {
            std::unique_lock<RankedMutex> lock(_signalMu);
            _cv.wait(lock,
                     [&] { return _signals != seen || _stop; });
        }
        double waited = obs::secondsSince(waitStart);
        if (gateWait) {
            _stats.gateWaitSec += waited;
            _obs.recordGateWait(blockedOn, waited);
            if (_recordTrace) {
                double startSec =
                    obs::secondsBetween(_epoch, waitStart);
                _traceRecords.push_back(TraceRecord{
                    ticksFromSec(startSec),
                    ticksFromSec(startSec + waited), _stage,
                    TraceKind::Stall,
                    _fwd.front()->subnet.id(),
                    "gate L" + std::to_string(blockedOn)});
            }
        } else {
            _stats.idleSec += waited;
        }
    }
}

} // namespace naspipe
