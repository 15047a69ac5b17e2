#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/wall_clock.h"

namespace naspipe {
namespace serve {

SearchService::SearchService(ServiceConfig config) : _config(config)
{
    NASPIPE_ASSERT(_config.numStages >= 1,
                   "service needs >= 1 pool stage");
    NASPIPE_ASSERT(_config.maxTotalInflight >= 0,
                   "in-flight budget must be >= 0");
}

bool
SearchService::submissionsClosed(std::string *why) const
{
    const char *reason = _holdsInProcess
                             ? "service runs an in-process job; "
                               "submissions closed"
                         : _draining
                             ? "service is draining; submissions closed"
                             : nullptr;
    if (reason && why)
        *why = reason;
    return reason != nullptr;
}

int
SearchService::submit(const JobSpec &spec, std::string *why)
{
    if (!validateJobSpec(spec, why))
        return -1;
    std::lock_guard<RankedMutex> lock(_clientMu);
    if (submissionsClosed(why))
        return -1;
    int id = _nextJobId++;
    JobSpec named = spec;
    if (named.name.empty())
        named.name = "job" + std::to_string(id);
    _pendingSpecs.emplace_back(id, std::move(named));
    return id;
}

std::vector<int>
SearchService::submitBatch(const std::vector<JobSpec> &specs,
                           std::string *why)
{
    // All-or-nothing: validate the whole batch before the first
    // enqueue, so a typo in spec 7 does not strand specs 1-6.
    for (std::size_t i = 0; i < specs.size(); i++) {
        std::string reason;
        if (!validateJobSpec(specs[i], &reason)) {
            if (why)
                *why = "job " + std::to_string(i + 1) + ": " +
                       reason;
            return {};
        }
    }
    std::vector<int> ids;
    std::lock_guard<RankedMutex> lock(_clientMu);
    if (submissionsClosed(why))
        return {};
    ids.reserve(specs.size());
    for (const JobSpec &spec : specs) {
        int id = _nextJobId++;
        JobSpec named = spec;
        if (named.name.empty())
            named.name = "job" + std::to_string(id);
        _pendingSpecs.emplace_back(id, std::move(named));
        ids.push_back(id);
    }
    return ids;
}

int
SearchService::submitInProcess(const SearchSpace &space,
                               const RuntimeConfig &config,
                               std::string *why)
{
    std::lock_guard<RankedMutex> lock(_clientMu);
    if (submissionsClosed(why))
        return -1;
    if (_nextJobId != 1) {
        if (why)
            *why = "an in-process job must be the service's only job";
        return -1;
    }
    int id = _nextJobId++;
    _holdsInProcess = true;
    JobSpec identity;
    identity.name = "job" + std::to_string(id);
    identity.space = space.name();
    identity.seed = config.seed;
    identity.steps = config.totalSubnets;
    _pendingInProcess = std::make_unique<ServeJob>(
        id, std::move(identity), space, config);
    return id;
}

bool
SearchService::cancel(int jobId)
{
    std::lock_guard<RankedMutex> lock(_clientMu);
    if (jobId < 1 || jobId >= _nextJobId)
        return false;
    _pendingCancels.push_back(jobId);
    return true;
}

void
SearchService::drain()
{
    std::lock_guard<RankedMutex> lock(_clientMu);
    _draining = true;
}

std::vector<JobStatus>
SearchService::status() const
{
    std::lock_guard<RankedMutex> lock(_clientMu);
    return _statusSnap;
}

const ServeJob *
SearchService::job(int jobId) const
{
    auto it = _jobs.find(jobId);
    return it == _jobs.end() ? nullptr : it->second.get();
}

RunResult
SearchService::takeResult(int jobId)
{
    return _jobs.at(jobId)->takeResult();
}

double
SearchService::elapsed() const
{
    return obs::secondsSince(_epoch);
}

ServeJob::PoolHooks
SearchService::hooks(int jobId)
{
    ServeJob::PoolHooks h;
    h.dispatch = [this](std::shared_ptr<const SubnetRun> run) {
        _pool->dispatch(std::move(run));
    };
    h.wakeAll = [this] { _pool->notifyAll(); };
    if (_config.commitObserver) {
        auto observer = _config.commitObserver;
        h.commitEvent = [observer, jobId](std::uint64_t layerKey,
                                          SubnetId subnet,
                                          std::size_t rank,
                                          int stage) {
            observer(jobId, layerKey, subnet, rank, stage);
        };
    }
    if (_config.recoveryObserver) {
        auto observer = _config.recoveryObserver;
        h.recovered = [observer, jobId](int attempt) {
            observer(jobId, attempt);
        };
    }
    h.perturb = [this](FaultKind kind, int target, int ticks) {
        if (kind == FaultKind::StageStall)
            _pool->injectStall(target, ticks);
        else
            _pool->injectDegrade(target, ticks);
    };
    h.poolIdle = [this, jobId] {
        for (const auto &entry : _jobs) {
            if (entry.first != jobId && !entry.second->terminal())
                return false;
        }
        std::lock_guard<RankedMutex> lock(_clientMu);
        return _pendingSpecs.empty();
    };
    return h;
}

SharedStagePool::Config
SearchService::poolConfig() const
{
    SharedStagePool::Config pc;
    pc.numStages = _config.numStages;
    long long windows = 0;
    for (const auto &entry : _jobs)
        windows += entry.second->window();
    if (_config.maxTotalInflight > 0)
        windows = std::min<long long>(windows,
                                      _config.maxTotalInflight);
    pc.inboxCapacity =
        static_cast<std::size_t>(std::max<long long>(2 * windows, 16));
    if (!_inProcess)
        return pc;
    // A lone in-process job owns the pool, so its workers manage
    // contexts like the simulator's stages: the job's memory mode
    // and predictor, and the §4.2 memory-limit check. The planned
    // footprint covers the ~3 moving contexts of §3.3; contexts
    // awaiting their backward pass also linger, so the enforced
    // budget is 3x the plan.
    const RuntimeConfig &c = _inProcess->config();
    pc.context.mode = c.system.memory;
    pc.context.predictor = c.system.predictor;
    pc.context.budgetBytes =
        c.system.memory == MemoryMode::AllResident
            ? 0
            : 3 * _inProcess->session().plan().residentParamBytesPerGpu;
    pc.recordTrace = c.traceEnabled;
    return pc;
}

void
SearchService::addJob(std::unique_ptr<ServeJob> job)
{
    int id = job->id();
    _sched.addJob(id, job->spec().priority);
    _inbound[id];
    JobStatus s;
    s.id = id;
    s.name = job->spec().name;
    s.priority = job->spec().priority;
    s.total = job->spec().steps;
    _jobs.emplace(id, std::move(job));
    std::lock_guard<RankedMutex> lock(_clientMu);
    _statusSnap.push_back(std::move(s));
}

void
SearchService::applyControl()
{
    std::vector<std::pair<int, JobSpec>> specs;
    std::vector<int> cancels;
    std::unique_ptr<ServeJob> inProcess;
    {
        std::lock_guard<RankedMutex> lock(_clientMu);
        specs.swap(_pendingSpecs);
        cancels.swap(_pendingCancels);
        inProcess = std::move(_pendingInProcess);
    }
    if (inProcess) {
        _inProcess = inProcess.get();
        addJob(std::move(inProcess));
    }
    for (auto &entry : specs) {
        addJob(std::make_unique<ServeJob>(
            entry.first, std::move(entry.second), _config.numStages,
            _config.accessHistory));
    }
    for (int id : cancels) {
        auto it = _jobs.find(id);
        if (it == _jobs.end() || it->second->terminal())
            continue;
        it->second->requestCancel();
        if (it->second->terminal())
            finalizeJob(*it->second);
    }
}

void
SearchService::admitQueued()
{
    // Service admission control, ascending job ID: a job becomes
    // Admitted only when the in-flight budget still covers its
    // window, so admitted jobs can always make independent progress
    // and the pool's bounded queues stay deadlock-free.
    long long budget =
        _config.maxTotalInflight > 0
            ? _config.maxTotalInflight
            : std::numeric_limits<long long>::max();
    for (auto &entry : _jobs) {
        ServeJob &job = *entry.second;
        if (job.state() != JobState::Queued)
            continue;
        long long window = job.window();
        if (window > budget) {
            job.fail("job window (" + std::to_string(window) +
                     ") exceeds the service in-flight budget (" +
                     std::to_string(budget) + ")");
            finalizeJob(job);
            continue;
        }
        if (_admittedWindows + window > budget)
            continue;  // wait for a tenant to finish
        if (job.start(hooks(job.id()), elapsed())) {
            _admittedWindows += window;
            _reserved.insert(job.id());
        }
        if (job.finishing())
            handOff(job);  // resumed at its end
        else if (job.terminal())
            finalizeJob(job);  // rejected
    }
}

void
SearchService::release(const ServeJob &job)
{
    if (_sched.hasJob(job.id()))
        _sched.removeJob(job.id());
    if (_reserved.erase(job.id()))
        _admittedWindows -= job.window();
}

void
SearchService::handOff(ServeJob &job)
{
    release(job);
    _finisher.post(job.id(), [&job] { return job.collectResult(); });
}

void
SearchService::installFinished(std::vector<JobFinisher::Finished> done)
{
    for (JobFinisher::Finished &f : done) {
        _finishSeconds += f.seconds;
        ServeJob &job = *_jobs.at(f.jobId);
        if (f.error) {
            // A failed finish fails its own job only.
            std::string why = "unknown exception";
            try {
                std::rethrow_exception(f.error);
            } catch (const std::exception &e) {
                why = e.what();
            } catch (...) {
            }
            job.fail("post-run search failed: " + why);
        } else {
            job.complete(std::move(f.result));
        }
        finalizeJob(job);
    }
}

bool
SearchService::poolNeeded() const
{
    for (const auto &entry : _jobs) {
        if (!entry.second->terminal() && !entry.second->finishing())
            return true;
    }
    std::lock_guard<RankedMutex> lock(_clientMu);
    return !(_holdsInProcess || _draining) || !_pendingSpecs.empty();
}

bool
SearchService::anyRecovering() const
{
    for (const auto &entry : _jobs) {
        if (entry.second->state() == JobState::Recovering)
            return true;
    }
    return false;
}

bool
SearchService::allTerminal() const
{
    for (const auto &entry : _jobs) {
        if (!entry.second->terminal())
            return false;
    }
    return true;
}

void
SearchService::progressRecovering()
{
    for (auto &entry : _jobs) {
        ServeJob &job = *entry.second;
        if (job.state() != JobState::Recovering)
            continue;
        // Completions buffered before the fault was applied are
        // stragglers too: drop them against the drain count.
        std::deque<std::shared_ptr<const SubnetRun>> &buf =
            _inbound[job.id()];
        while (!buf.empty() && job.pendingDrain() > 0) {
            buf.pop_front();
            job.noteStragglerDropped();
        }
        if (job.pendingDrain() > 0)
            continue;  // in-flight stragglers still to arrive
        if (!job.recover(elapsed()))
            finalizeJob(job);  // cancelled or retries exhausted
    }
}

bool
SearchService::popAndRoute()
{
    // Every caller has work in flight, so a completion (or a dying
    // worker's sentinel) is due; the opt-in deadline bounds the wait.
    std::optional<std::chrono::duration<double>> deadline;
    if (_config.wallDeadlineSeconds > 0)
        deadline = std::chrono::duration<double>(_config.wallDeadlineSeconds);
    obs::TimePoint waitStart = obs::now();
    std::optional<std::shared_ptr<const SubnetRun>> got =
        _pool->completions().pop(deadline);
    _waitSeconds += obs::secondsSince(waitStart);
    if (!got) {
        failService("pool wall deadline: no completion within " +
                    formatFixed(_config.wallDeadlineSeconds, 3) +
                    " s while work was in flight");
        return false;
    }
    std::shared_ptr<const SubnetRun> run = std::move(*got);
    if (!run) {
        failService("pool incident (" +
                    _pool->incidentDescription() + ")");
        return false;
    }
    NASPIPE_ASSERT(run->job, "pool completion without a binding");
    auto it = _jobs.find(run->job->jobId);
    NASPIPE_ASSERT(it != _jobs.end(), "completion for unknown job ",
                   run->job->jobId);
    ServeJob &job = *it->second;
    if (job.state() == JobState::Recovering) {
        // A straggler of the crashed phase: dropped, not recorded —
        // the rollback replays it, and the job's logical clock stays
        // deterministic.
        job.noteStragglerDropped();
        return true;
    }
    NASPIPE_ASSERT(!job.terminal(), "completion for terminal job ",
                   job.id());
    _inbound[job.id()].push_back(std::move(run));
    return true;
}

void
SearchService::finalizeJob(ServeJob &job)
{
    NASPIPE_ASSERT(job.terminal(), "finalize on a live job");
    release(job);
    NASPIPE_ASSERT(_inbound[job.id()].empty(),
                   "terminal job ", job.id(),
                   " left buffered completions");
    if (&job == _inProcess)
        return;  // its caller reports the RunResult itself
    if (job.state() == JobState::Done) {
        inform("job ", job.id(), " (", job.spec().name, ") done: ",
               job.session().finished(), " subnets, hash ",
               job.supernetHash());
    } else {
        inform("job ", job.id(), " (", job.spec().name,
               ") failed: ", job.error());
    }
}

void
SearchService::failService(const std::string &reason)
{
    _serviceFailed = true;
    _serviceError = reason;
    inform("service failure: ", reason);
    // Every live tenant is lost with the pool. Per-job state is
    // still reported honestly: they fail with the service reason,
    // not a fabricated per-job cause. A finishing job no longer
    // needs the pool; its finisher still makes it Done.
    for (auto &entry : _jobs) {
        ServeJob &job = *entry.second;
        if (job.terminal() || job.finishing())
            continue;
        _inbound[job.id()].clear();
        job.fail("service failure: " + reason);
        release(job);
    }
    _pool->abort();
}

void
SearchService::updateStatus()
{
    // addJob() appended one entry per job in ascending ID order and
    // set the fields that never change; rewrite the rest in place.
    std::lock_guard<RankedMutex> lock(_clientMu);
    auto s = _statusSnap.begin();
    for (const auto &entry : _jobs) {
        const ServeJob &job = *entry.second;
        s->state = job.state();
        s->injected = job.session().injected();
        s->finished = job.session().finished();
        s->recoveries = job.recoveries();
        s->supernetHash = job.supernetHash();
        if (s->state == JobState::Failed && s->error.empty())
            s->error = job.error();
        ++s;
    }
}

int
SearchService::run()
{
    _epoch = obs::now();
    applyControl();
    if (_jobs.empty()) {
        _wallSeconds = elapsed();
        return AllDone;
    }

    // Admission first: an admitted in-process job's capacity plan
    // sizes the pool's context budget. A multi-tenant pool keeps
    // worker context management AllResident with the predictor off
    // (the Config default): every job's store pre-materializes at
    // admission, and the cache is pure bookkeeping that sharing
    // across tenants would only entangle — so the space it sizes
    // against is never consulted; any live one works, and jobs are
    // never erased from _jobs.
    admitQueued();
    _pool = std::make_unique<SharedStagePool>(
        _jobs.begin()->second->space(), poolConfig());
    _pool->start();

    while (!_serviceFailed) {
        installFinished(_finisher.poll());
        applyControl();
        admitQueued();
        progressRecovering();
        updateStatus();

        if (allTerminal()) {
            std::lock_guard<RankedMutex> lock(_clientMu);
            if (_pendingSpecs.empty() && _pendingCancels.empty())
                break;
            continue;
        }

        if (anyRecovering()) {
            // Deterministic freeze: while any tenant drains its
            // crashed phase, nothing is admitted and nothing is
            // applied — arriving events are only buffered (or
            // dropped for the crashed job), so the replayed schedule
            // is timing-independent.
            popAndRoute();
            continue;
        }

        // Admission phase: one subnet per smooth-WRR slot until no
        // job can accept another. The global ticket sequence defines
        // the workers' cross-job forward priority.
        bool admitted = false;
        while (true) {
            std::vector<int> eligible;
            for (auto &entry : _jobs) {
                if (entry.second->admissible())
                    eligible.push_back(entry.first);
            }
            if (eligible.empty())
                break;
            int pick = _sched.pickAdmit(eligible);
            _jobs[pick]->pumpOne(_nextTicket++);
            admitted = true;
        }
        if (admitted)
            updateStatus();

        // Drain phase: commit to one job's next completion.
        std::vector<int> targets;
        for (auto &entry : _jobs) {
            JobState s = entry.second->state();
            if ((s == JobState::Running ||
                 s == JobState::Draining) &&
                entry.second->session().inflight() > 0)
                targets.push_back(entry.first);
        }
        if (targets.empty()) {
            // No admissions possible and nothing in flight, yet a
            // job is non-terminal: control traffic (a submit or
            // cancel racing in) or a finish can unblock this.
            {
                std::lock_guard<RankedMutex> lock(_clientMu);
                if (!_pendingSpecs.empty() || !_pendingCancels.empty())
                    continue;
            }
            NASPIPE_ASSERT(_finisher.outstanding() > 0,
                           "serve coordinator wedged: live jobs but "
                           "no admissible, in-flight or finishing "
                           "work");
            // Once nothing can dispatch again, the stages stop here
            // rather than idle through the remaining searches.
            if (!poolNeeded())
                _pool->shutdown();
            obs::TimePoint waitStart = obs::now();
            std::vector<JobFinisher::Finished> done = _finisher.wait();
            _waitSeconds += obs::secondsSince(waitStart);
            installFinished(std::move(done));
            continue;
        }
        int target = _sched.pickDrain(targets);
        // Commit to the target: block until *its* next completion is
        // buffered. Job states cannot change while buffering (faults
        // only latch on applied events), so the wait terminates —
        // the target has work in flight and CSP liveness guarantees
        // its lowest unfinished subnet is always runnable.
        std::deque<std::shared_ptr<const SubnetRun>> &buf =
            _inbound[target];
        while (buf.empty()) {
            if (!popAndRoute())
                break;  // service failure
        }
        if (_serviceFailed || buf.empty())
            continue;
        std::shared_ptr<const SubnetRun> done =
            std::move(buf.front());
        buf.pop_front();
        ServeJob &job = *_jobs[target];
        job.applyCompletion(done, elapsed());
        if (job.finishing())
            handOff(job);
        updateStatus();
    }

    // After a service failure, jobs that were finishing still end
    // Done: they were past their last completion.
    while (_finisher.outstanding() > 0)
        installFinished(_finisher.wait());
    _wallSeconds = elapsed();
    if (!_serviceFailed)
        _pool->shutdown();
    updateStatus();

    if (_serviceFailed)
        return ServiceFailed;
    int outcome = AllDone;
    for (const auto &entry : _jobs) {
        const ServeJob &job = *entry.second;
        if (job.state() != JobState::Failed)
            continue;
        outcome = std::max(
            outcome, job.retriesExhausted()
                         ? static_cast<int>(RetriesExhausted)
                         : static_cast<int>(JobFailed));
    }
    return outcome;
}

std::string
SearchService::exportMetricsJson(bool stableOnly) const
{
    obs::MetricsRegistry reg;
    std::uint64_t totalFinished = 0;
    std::uint64_t combinedHash = 1469598103934665603ULL;  // FNV-1a
    int done = 0, failed = 0;
    for (const auto &entry : _jobs) {
        const ServeJob &job = *entry.second;
        std::string p = "job/" + std::to_string(job.id()) + "/";
        reg.text(p + "name", job.spec().name);
        reg.text(p + "space", job.spec().space);
        reg.text(p + "state", jobStateName(job.state()));
        reg.counter(p + "seed", job.spec().seed);
        reg.counter(p + "priority",
                    static_cast<std::uint64_t>(
                        job.spec().priority));
        reg.counter(p + "total_subnets",
                    static_cast<std::uint64_t>(job.spec().steps));
        reg.counter(p + "finished_subnets",
                    static_cast<std::uint64_t>(
                        job.session().finished()));
        reg.counter(p + "recoveries",
                    static_cast<std::uint64_t>(job.recoveries()));
        reg.counter(p + "subnets_replayed",
                    static_cast<std::uint64_t>(
                        job.subnetsReplayed()));
        totalFinished +=
            static_cast<std::uint64_t>(job.session().finished());
        if (job.state() == JobState::Done) {
            done++;
            const RunMetrics &m = job.result().metrics;
            reg.counter(p + "supernet_hash", job.supernetHash());
            reg.gauge(p + "final_loss", m.finalLoss);
            reg.gauge(p + "search_accuracy",
                      job.result().searchAccuracy);
            reg.counter(p + "gate_commits",
                        static_cast<std::uint64_t>(m.gateCommits));
            // Fold per-job hashes in ascending job-ID order: one
            // fingerprint over the whole multi-tenant outcome.
            std::uint64_t h = job.supernetHash();
            for (int b = 0; b < 8; b++) {
                combinedHash ^= (h >> (8 * b)) & 0xffULL;
                combinedHash *= 1099511628211ULL;
            }
        }
        if (job.state() == JobState::Failed) {
            failed++;
            reg.text(p + "error", job.error());
        }
    }
    reg.counter("serve/jobs",
                static_cast<std::uint64_t>(_jobs.size()));
    reg.counter("serve/jobs_done",
                static_cast<std::uint64_t>(done));
    reg.counter("serve/jobs_failed",
                static_cast<std::uint64_t>(failed));
    reg.counter("serve/pool_stages",
                static_cast<std::uint64_t>(_config.numStages));
    reg.counter("serve/tickets", _nextTicket);
    reg.counter("run/finished_subnets", totalFinished);
    reg.counter("quality/supernet_hash", combinedHash);
    reg.gauge("serve/wall_s", _wallSeconds, 6,
              obs::Stability::Timing);
    reg.gauge("serve/coordinator_busy_s", _wallSeconds - _waitSeconds,
              6, obs::Stability::Timing);
    reg.gauge("serve/finish_s", _finishSeconds, 6,
              obs::Stability::Timing);
    if (_wallSeconds > 0.0) {
        reg.gauge("serve/throughput_subnets_per_s",
                  static_cast<double>(totalFinished) / _wallSeconds,
                  6, obs::Stability::Timing);
    }
    std::vector<std::pair<std::string, std::string>> headers;
    headers.emplace_back("mode", "serve");
    headers.emplace_back("stages",
                         std::to_string(_config.numStages));
    return reg.exportJson(headers, stableOnly);
}

} // namespace serve
} // namespace naspipe
