#include "serve/job.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"
#include "schedule/scheduler.h"
#include "supernet/search_space.h"

namespace naspipe {
namespace serve {

const char *
jobStateName(JobState state)
{
    switch (state) {
    case JobState::Queued:
        return "queued";
    case JobState::Admitted:
        return "admitted";
    case JobState::Running:
        return "running";
    case JobState::Recovering:
        return "recovering";
    case JobState::Draining:
        return "draining";
    case JobState::Done:
        return "done";
    case JobState::Failed:
        return "failed";
    }
    return "?";
}

bool
jobTransitionAllowed(JobState from, JobState to)
{
    switch (from) {
    case JobState::Queued:
        return to == JobState::Admitted || to == JobState::Failed;
    case JobState::Admitted:
        return to == JobState::Running || to == JobState::Failed;
    case JobState::Running:
        return to == JobState::Draining ||
               to == JobState::Recovering || to == JobState::Done ||
               to == JobState::Failed;
    case JobState::Draining:
        return to == JobState::Recovering ||
               to == JobState::Done || to == JobState::Failed;
    case JobState::Recovering:
        return to == JobState::Running || to == JobState::Failed;
    case JobState::Done:
    case JobState::Failed:
        return false;  // terminal
    }
    return false;
}

bool
validateJobSpec(const JobSpec &spec, std::string *why)
{
    auto reject = [&](const std::string &reason) {
        if (why)
            *why = reason;
        return false;
    };
    std::vector<std::string> names = defaultSpaceNames();
    if (std::find(names.begin(), names.end(), spec.space) ==
        names.end())
        return reject("unknown search space '" + spec.space + "'");
    if (spec.steps < 1)
        return reject("steps must be >= 1");
    if (spec.priority < 1)
        return reject("priority must be >= 1");
    if (spec.ckptInterval < 0)
        return reject("ckpt interval must be >= 0");
    if (spec.recoveryRetries < 0)
        return reject("retries must be >= 0");
    if (spec.maxInflight < 0)
        return reject("window must be >= 0");
    for (const FaultSpec &f : spec.faults) {
        if (!faultIsFailStop(f.kind)) {
            return reject(
                "transient fault '" + f.describe() +
                "' is not job-scoped: on a shared pool a "
                "stall/degrade would perturb every tenant");
        }
        if (f.atStep < 1)
            return reject("fault step must be >= 1");
    }
    return true;
}

bool
parseJobSpec(const std::string &text, JobSpec &out,
             std::string *why)
{
    auto reject = [&](const std::string &reason) {
        if (why)
            *why = reason;
        return false;
    };
    JobSpec spec;
    std::istringstream in(text);
    std::string token;
    while (std::getline(in, token, ',')) {
        if (token.empty())
            continue;
        std::size_t eq = token.find('=');
        if (eq == std::string::npos)
            return reject("job spec token '" + token +
                          "' is not key=value");
        std::string key = token.substr(0, eq);
        std::string value = token.substr(eq + 1);
        if (value.empty())
            return reject("job spec key '" + key +
                          "' has an empty value");
        bool numeric = true;
        if (key == "name") {
            spec.name = value;
        } else if (key == "space") {
            spec.space = value;
        } else if (key == "seed") {
            numeric = parseWholeNumber(value, spec.seed);
        } else if (key == "steps") {
            numeric = parseWholeNumber(value, spec.steps);
        } else if (key == "priority") {
            numeric = parseWholeNumber(value, spec.priority);
        } else if (key == "ckpt") {
            numeric = parseWholeNumber(value, spec.ckptInterval);
        } else if (key == "ckpt-path") {
            spec.ckptPath = value;
        } else if (key == "retries") {
            numeric = parseWholeNumber(value, spec.recoveryRetries);
        } else if (key == "window") {
            numeric = parseWholeNumber(value, spec.maxInflight);
        } else if (key == "precision") {
            if (!kernels::parsePrecisionMode(value, spec.precision))
                return reject("bad precision '" + value +
                              "' (want fp32 or fp16)");
        } else if (key == "fault") {
            FaultSpec f;
            std::string err;
            if (!parseFaultSpec(value, f, &err))
                return reject("bad fault '" + value + "': " + err);
            spec.faults.push_back(f);
        } else {
            return reject("unknown job spec key '" + key + "'");
        }
        if (!numeric)
            return reject("job spec key '" + key +
                          "' has a non-numeric or out-of-range value '" +
                          value + "'");
    }
    out = std::move(spec);
    return true;
}

namespace {

RuntimeConfig
buildConfig(const JobSpec &spec, int numStages, bool accessHistory)
{
    RuntimeConfig config;
    config.system = naspipeSystem();
    config.numStages = numStages;
    config.totalSubnets = spec.steps;
    config.seed = spec.seed;
    config.numeric = true;
    config.ckptInterval = spec.ckptInterval;
    config.ckptPath = spec.ckptPath;
    config.faults = spec.faults;
    config.recoveryMaxRetries = spec.recoveryRetries;
    config.precision = spec.precision;
    config.accessHistory = accessHistory;
    // Resume-from-file: a ckpt-path that already holds a checkpoint
    // (a previous submission of this job was interrupted after a
    // drained barrier) restarts the trajectory from that barrier. A
    // missing file is a fresh start.
    if (!spec.ckptPath.empty() && std::ifstream(spec.ckptPath).good())
        config.resumePath = spec.ckptPath;
    return config;
}

fault::RecoveryPolicy::Config
policyConfig(const RuntimeConfig &config)
{
    return {config.recoveryMaxRetries, config.recoveryBackoffSeconds,
            60.0};
}

} // namespace

ServeJob::ServeJob(int id, JobSpec spec, int numStages,
                   bool accessHistory)
    : _id(id), _spec(std::move(spec)),
      _ownedSpace(
          std::make_unique<SearchSpace>(makeSpaceByName(_spec.space))),
      _space(*_ownedSpace),
      _config(buildConfig(_spec, numStages, accessHistory)),
      _session(_space, _config), _policy(policyConfig(_config))
{
    _session.attach(this);
}

ServeJob::ServeJob(int id, JobSpec identity, const SearchSpace &space,
                   RuntimeConfig config)
    : _id(id), _spec(std::move(identity)), _space(space),
      _config(std::move(config)), _session(_space, _config),
      _policy(policyConfig(_config))
{
    _session.attach(this);
}

bool
ServeJob::canAdmit(SubnetId next) const
{
    (void)next;
    // The session already enforces the system in-flight window; the
    // spec's own cap narrows it per job (a small window is how a
    // low-priority tenant bounds its pool share).
    if (_spec.maxInflight > 0 &&
        _session.inflight() >= _spec.maxInflight)
        return false;
    return true;
}

void
ServeJob::admit(SubnetId id)
{
    const Subnet &sn = _session.subnetOf(id);
    auto run = std::make_shared<SubnetRun>();
    run->subnet = sn;
    run->partition = _session.partitionOf(id);
    run->job = &_binding;
    // The scheduler-assigned global ticket: pool workers order their
    // forward queues by it, so the cross-job interleaving is decided
    // here (deterministically), not by arrival timing.
    run->ticket = _nextTicket;
    // Registration precedes dispatch: the job's causal chains are
    // complete for this subnet before any worker resolves a claim.
    for (int b = 0; b < sn.size(); b++) {
        if (_space.parameterized(b, sn.choice(b)))
            _gate->registerActivation(sn.layer(b).key(), sn.id());
    }
    _hooks.dispatch(std::move(run));
}

void
ServeJob::restoreCompleted(SubnetId id)
{
    // Restored subnets are deliberately NOT registered in the gate,
    // so the live run's causal chains start fresh at rank 0 — which
    // keeps a live CspOracle's commit-monotonicity check valid across
    // a resume and a rollback. The restored store already holds
    // their weight updates, and the drained barrier guarantees they
    // hold no pipeline token.
    (void)id;
}

int
ServeJob::searchThreads(int numStages) const
{
    return _hooks.poolIdle && _hooks.poolIdle() ? numStages + 1 : 1;
}

bool
ServeJob::start(PoolHooks hooks, double nowSeconds)
{
    NASPIPE_ASSERT(_state == JobState::Queued,
                   "start() on a non-queued job (", _id, ")");
    NASPIPE_ASSERT(hooks.dispatch, "job needs a pool dispatch hook");
    _hooks = std::move(hooks);
    if (!_session.initRun()) {
        _result.oom = true;
        fail("capacity planner rejected the job (space " +
             _spec.space + " does not fit " +
             std::to_string(_config.numStages) + " stages)");
        return false;
    }
    // An unreadable or mismatched checkpoint fails the job rather
    // than silently retraining from subnet 0.
    const std::string &resumePath = _config.resumePath;
    if (!resumePath.empty()) {
        if (!_session.resume(resumePath)) {
            fail("cannot resume from checkpoint '" + resumePath + "'");
            return false;
        }
        inform("job ", _id, ": resumed from '", resumePath, "' at ",
               _session.finished(), " completed subnets");
    }
    // Pre-materialize so the shared workers' hot path stays
    // structurally read-only on this job's private store.
    _session.store()->materializeAll();
    rebuildGate();
    _startedAt = nowSeconds;
    _phaseStart = nowSeconds;
    setState(JobState::Admitted);
    if (_session.finished() == _session.totalSubnets()) {
        // Resumed from the final barrier: nothing left to inject.
        setState(JobState::Running);
        finish(nowSeconds);
    }
    return true;
}

bool
ServeJob::pumpOne(std::uint64_t ticket)
{
    NASPIPE_ASSERT(_state == JobState::Admitted ||
                       _state == JobState::Running,
                   "pumpOne() on job ", _id, " in state ",
                   jobStateName(_state));
    _nextTicket = ticket;
    int injected = _session.pump(1);
    if (injected > 0 && _state == JobState::Admitted)
        setState(JobState::Running);
    refreshDrainState();
    return injected > 0;
}

bool
ServeJob::admissible()
{
    if (_state != JobState::Admitted && _state != JobState::Running)
        return false;
    return _session.admissible();
}

void
ServeJob::applyCompletion(
    const std::shared_ptr<const SubnetRun> &run, double nowSeconds)
{
    NASPIPE_ASSERT(_state == JobState::Running ||
                       _state == JobState::Draining,
                   "completion for job ", _id, " in state ",
                   jobStateName(_state));
    float loss = 0.0f;
    if (_config.numeric)
        loss = _session.exec().finishSubnet(run->subnet);
    double at =
        _session.secOffset() + (nowSeconds - _phaseStart);
    bool atBarrier =
        _session.recordCompletion(run->subnet.id(), loss, at);

    // The job's fault plan runs on the job's own logical clock (its
    // completion count) — neighbors never advance it.
    const int numStages = _config.numStages;
    for (const FaultSpec &f :
         _session.dueFaults(ticksFromSec(nowSeconds - _phaseStart))) {
        int stage = std::clamp(f.stage, 0, numStages - 1);
        // A link fault hits the link below `link`; a one-stage
        // pipeline has no links (the simulator ignores it too).
        int link = std::min(stage, numStages - 2);
        int ticks = std::max(1, static_cast<int>(f.durationMs));
        switch (f.kind) {
          case FaultKind::GpuCrash:
            beginFailStop("injected fault: " + f.describe(), stage);
            break;
          case FaultKind::LinkDrop:
            // The downstream end of the dropped link loses its
            // traffic — fail-stop for the stage behind it.
            if (numStages >= 2)
                beginFailStop("injected fault: " + f.describe(),
                              link + 1);
            break;
          case FaultKind::StageStall:
            _hooks.perturb(f.kind, stage, ticks);
            break;
          case FaultKind::LinkDegrade:
            if (numStages >= 2)
                _hooks.perturb(f.kind, link, ticks);
            break;
        }
    }
    if (_failStopPending)
        return;  // no checkpoint at a crash-coincident barrier

    _policy.noteProgress();
    if (atBarrier) {
        RunCheckpoint ckpt = _session.buildCheckpoint(
            _session.secOffset() + (nowSeconds - _phaseStart),
            _session.busyOffset());
        _session.commitCheckpoint(ckpt);
    }
    if (_session.finished() == _session.totalSubnets())
        finish(nowSeconds);
    else
        refreshDrainState();
}

bool
ServeJob::noteStragglerDropped()
{
    NASPIPE_ASSERT(_state == JobState::Recovering,
                   "straggler drop for job ", _id, " in state ",
                   jobStateName(_state));
    NASPIPE_ASSERT(_pendingDrain > 0,
                   "job ", _id, " drained more stragglers than it "
                   "had in flight");
    _pendingDrain--;
    return _pendingDrain == 0;
}

bool
ServeJob::recover(double nowSeconds)
{
    NASPIPE_ASSERT(_state == JobState::Recovering &&
                       _pendingDrain == 0,
                   "recover() before job ", _id, " drained");
    if (_cancelRequested) {
        fail("cancelled");
        return false;
    }
    if (!_policy.allowRetry()) {
        _retriesExhausted = true;
        fail("recovery retries exhausted after " +
             std::to_string(_policy.consecutiveFailures() + 1) +
             " consecutive failures (" + _failStopReason + ")");
        return false;
    }

    double wallAtCrash =
        _session.secOffset() + (nowSeconds - _phaseStart);
    double backoff = _policy.nextBackoffSeconds();
    inform("job ", _id, " recovering (", _failStopReason,
           "), attempt ", _policy.consecutiveFailures());
    auto rolled = _session.rollback(wallAtCrash, _session.busyOffset(),
                                    _config.recoverySeconds + backoff,
                                    nullptr);
    if (!rolled) {
        fail("recovery from the last checkpoint failed");
        return false;
    }
    // rollback() rebuilt the session around a fresh store, which the
    // restore leaves unmaterialized when no checkpoint was taken yet.
    _session.store()->materializeAll();
    // initRun() reset the trace (the simulator loses its pre-crash
    // trace the same way): the recovery span opens the new phase.
    _session.trace()->add(TraceRecord{
        0, 0, _failStopStage, TraceKind::Recovery, -1,
        "rollback to " + std::to_string(rolled->toCompleted) +
            ", attempt " +
            std::to_string(_policy.consecutiveFailures())});
    // Fresh job gate: this job's causal chains restart at rank 0.
    // The shared workers and every other tenant's gate are untouched.
    rebuildGate();
    if (_hooks.recovered)
        _hooks.recovered(_session.recoveries());
    _failStopPending = false;
    _phaseStart = nowSeconds;
    setState(JobState::Running);
    return true;
}

void
ServeJob::requestCancel()
{
    switch (_state) {
    case JobState::Queued:
    case JobState::Admitted:
        fail("cancelled");
        return;
    case JobState::Running:
    case JobState::Draining:
        _cancelRequested = true;
        // Drain like a fail-stop: in-flight stragglers are dropped,
        // then recover() observes the cancel and fails the job.
        beginFailStop("cancelled", 0);
        return;
    case JobState::Recovering:
        _cancelRequested = true;
        return;
    case JobState::Done:
    case JobState::Failed:
        return;  // already terminal
    }
}

void
ServeJob::refreshDrainState()
{
    if (_state == JobState::Running &&
        _session.injected() == _session.totalSubnets() &&
        _session.inflight() > 0)
        setState(JobState::Draining);
}

void
ServeJob::fail(const std::string &reason)
{
    _error = reason;
    _result.failed = true;
    _result.retriesExhausted = _retriesExhausted;
    _result.error = reason;
    _result.plan = _session.plan();
    setState(JobState::Failed);
}

int
ServeJob::window() const
{
    int limit =
        _config.system.effectiveInflight(_config.numStages);
    if (_spec.maxInflight > 0)
        limit = std::min(limit, _spec.maxInflight);
    return limit;
}

void
ServeJob::setState(JobState next)
{
    NASPIPE_ASSERT(jobTransitionAllowed(_state, next),
                   "illegal job state transition ",
                   jobStateName(_state), " -> ",
                   jobStateName(next), " (job ", _id, ")");
    _state = next;
}

void
ServeJob::rebuildGate()
{
    _gate = std::make_unique<CommitGate>();
    if (_hooks.wakeAll)
        _gate->onCommit(_hooks.wakeAll);
    if (_hooks.commitEvent)
        _gate->onCommitEvent(_hooks.commitEvent);
    _binding.jobId = _id;
    _binding.space = &_space;
    _binding.gate = _gate.get();
    _binding.exec = _config.numeric ? &_session.exec() : nullptr;
}

void
ServeJob::beginFailStop(const std::string &reason, int stage)
{
    if (_failStopPending)
        return;  // already draining for an earlier fail-stop
    _failStopPending = true;
    _failStopReason = reason;
    _failStopStage = stage;
    _pendingDrain = _session.inflight();
    setState(JobState::Recovering);
}

void
ServeJob::finish(double nowSeconds)
{
    double total =
        _session.secOffset() + (nowSeconds - _phaseStart);
    _result = _session.collect(total, _session.busyOffset());
    RunMetrics &m = _result.metrics;
    m.wallSeconds = nowSeconds - _startedAt;
    m.execWorkers = _config.numStages;
    m.gateCommits = _gate->commits();
    setState(JobState::Done);
}

} // namespace serve
} // namespace naspipe
