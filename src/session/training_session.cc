#include "session/training_session.h"

#include <algorithm>
#include <utility>

#include "common/file_io.h"
#include "common/logging.h"
#include "tensor/loss.h"

namespace naspipe {

namespace {

/// Modeled checkpoint-write bandwidth (local NVMe scale).
constexpr double kCkptWriteBytesPerSec = 2e9;
/// Modeled detection + restart seconds every rollback charges.
constexpr double kRecoverySeconds = 5.0;

} // namespace

void
ExecutionBackend::applyFault(const DueFault &fault)
{
    panic("backend cannot apply fault ", fault.spec.describe());
}

TrainingSession::TrainingSession(const SearchSpace &space,
                                 const RuntimeConfig &config)
    : _space(space), _config(config), _model(config.system),
      _numStages(config.numStages),
      _activation(defaultActivationModel(space.family())),
      _scoreScale(defaultScoreScale(space.family())),
      _injector(config.faults)
{
    NASPIPE_ASSERT(_numStages >= 1, "need >= 1 stage");
    NASPIPE_ASSERT(config.totalSubnets >= 1, "need >= 1 subnet");
}

bool
TrainingSession::initRun()
{
    // Capacity planning decides whether this system can run at all
    // and at which batch size; an explicitly pinned batch (the
    // reproducibility methodology) is checked against capacity too.
    CapacityPlanner planner(_space, GpuConfig{}, _activation);
    _plan = _config.batch > 0
                ? planner.planWithBatch(_model, _numStages,
                                        _config.batch)
                : planner.plan(_model, _numStages);
    if (!_plan.fits)
        return false;
    _batch = _plan.batch;

    if (_config.samplerFactory) {
        _sampler = _config.samplerFactory(_space, _config.seed);
        NASPIPE_ASSERT(_sampler, "sampler factory returned null");
    } else if (_config.hybridStreams > 0) {
        _sampler = std::make_unique<HybridSampler>(
            _space, _config.seed, _config.hybridStreams);
    } else if (_config.evolutionSearch) {
        _sampler =
            std::make_unique<EvolutionSampler>(_space, _config.seed);
    } else {
        _sampler =
            std::make_unique<UniformSampler>(_space, _config.seed);
    }
    _partitioner = std::make_unique<Partitioner>(_space, _batch);

    _store = std::make_shared<ParameterStore>(_space, _config.seed,
                                              _config.precision);
    _store->accessLog().enabled(_config.numeric);
    _store->accessLog().keepHistory(_config.accessHistory);
    NumericExecutor::Config ec;
    ec.dataSeed = deriveSeed(_config.seed, "data");
    ec.sgd = _config.sgd;
    ec.batch = _batch;
    ec.precision = _config.precision;
    _exec = std::make_unique<NumericExecutor>(*_store, ec);
    _trace = std::make_shared<Trace>();
    _trace->enabled(_config.traceEnabled);
    _gate = std::make_unique<CommitGate>();
    if (_config.commitObserver)
        _gate->onCommitEvent(_config.commitObserver);

    _subnets.clear();
    _partitions.clear();
    _collected = false;
    _records.clear();
    _nextScoreToReport = 0;
    _injected = 0;
    _finished = 0;
    _inflight = 0;
    _nextCkptAt = ckptEnabled() ? ckptStride() : 0;
    return true;
}

const Subnet &
TrainingSession::subnetOf(SubnetId id) const
{
    NASPIPE_ASSERT(!_collected, "subnetOf(SN", id, ") after collect()");
    NASPIPE_ASSERT(id >= 0 &&
                       static_cast<std::size_t>(id) < _subnets.size(),
                   "unknown SN", id);
    return _subnets[static_cast<std::size_t>(id)];
}

const SubnetPartition &
TrainingSession::partitionOf(SubnetId id) const
{
    NASPIPE_ASSERT(!_collected, "partitionOf(SN", id,
                   ") after collect()");
    NASPIPE_ASSERT(id >= 0 && static_cast<std::size_t>(id) <
                                  _partitions.size(),
                   "no partition for SN", id);
    return _partitions[static_cast<std::size_t>(id)];
}

std::pair<int, int>
TrainingSession::blockRange(int stage, SubnetId id) const
{
    const SubnetPartition &p = partitionOf(id);
    // lo > hi means the stage owns no blocks of this subnet.
    return {p.firstBlock(stage), p.lastBlock(stage)};
}

int
TrainingSession::effectiveFeedbackLag() const
{
    if (_config.feedbackLag != 0)
        return std::max(0, _config.feedbackLag);
    return _config.evolutionSearch ? 32 : 0;
}

void
TrainingSession::deliverScoresBelow(SubnetId maxIdExclusive)
{
    // Deliver quality feedback to the exploration algorithm in
    // sequence-ID order, never past the cap, so feedback-driven
    // samplers stay deterministic regardless of completion
    // interleavings.
    while (_nextScoreToReport < maxIdExclusive) {
        auto i = static_cast<std::size_t>(_nextScoreToReport);
        if (i >= _records.size() || !_records[i].done)
            break;
        _sampler->reportScore(_nextScoreToReport,
                              lossToScore(_records[i].loss, _scoreScale));
        _nextScoreToReport++;
    }
}

int
TrainingSession::pump()
{
    return pump(_config.totalSubnets);
}

bool
TrainingSession::admissible()
{
    NASPIPE_ASSERT(_backend, "no execution backend attached");
    if (_injected >= _config.totalSubnets)
        return false;
    if (_inflight >= _model.effectiveInflight(_numStages))
        return false;
    // Drain the pipeline for the next checkpoint barrier: at most
    // nextCkptAt subnets are ever injected before the barrier, so
    // finished == nextCkptAt implies inflight == 0 — the drained
    // state a checkpoint captures is a pure function of the
    // completed count under CSP.
    if (ckptEnabled() && _injected >= _nextCkptAt)
        return false;
    if (!_backend->canAdmit(_injected))
        return false;
    int lag = effectiveFeedbackLag();
    if (lag > 0) {
        // Feedback-driven samplers see *exactly* the scores of
        // subnets <= i - lag before drawing subnet i, so their
        // draws replay identically on any cluster.
        deliverScoresBelow(_injected - lag + 1);
        if (_injected - _nextScoreToReport >= lag)
            return false;  // required scores not yet available
    }
    return true;
}

int
TrainingSession::pump(int maxCount)
{
    int count = 0;
    while (count < maxCount && admissible()) {
        SubnetId nextId = _injected;
        Subnet sn = _sampler->next();
        NASPIPE_ASSERT(sn.id() == nextId, "sampler IDs out of sync");

        _partitions.push_back(
            _model.balancedPartition
                ? _partitioner->balanced(sn, _numStages)
                : Partitioner::even(sn.size(), _numStages));
        _subnets.push_back(std::move(sn));
        _records.emplace_back();
        if (_config.numeric)
            _exec->beginSubnet(_subnets.back());
        _backend->admit(nextId);
        _injected++;
        _inflight++;
        count++;
    }
    return count;
}

TrainingSession::StageClaims
TrainingSession::registerClaims(SubnetId id)
{
    // admit() runs before pump() counts the subnet as injected, so
    // this refuses every restored (or already admitted) ID.
    NASPIPE_ASSERT(id == _injected, "gate claims for SN", id,
                   ", which is not being admitted");
    const Subnet &sn = subnetOf(id);
    const SubnetPartition &part = partitionOf(id);
    StageClaims claims(static_cast<std::size_t>(part.numStages()));
    for (int s = 0; s < part.numStages(); s++) {
        for (int b = part.firstBlock(s); b <= part.lastBlock(s); b++) {
            if (_space.parameterized(b, sn.choice(b)))
                claims[static_cast<std::size_t>(s)].push_back(
                    _gate->registerActivation(sn.layer(b).key(), id));
        }
    }
    return claims;
}

bool
TrainingSession::recordCompletion(SubnetId id, float loss,
                                  double atSeconds)
{
    NASPIPE_ASSERT(id >= 0 &&
                       static_cast<std::size_t>(id) < _records.size(),
                   "completion of uninjected SN", id);
    // Rejects NaN too: every reader of the table trusts it.
    NASPIPE_ASSERT(atSeconds >= 0.0 && loss >= 0.0f,
                   "invalid completion of SN", id, ": loss ", loss,
                   " at ", atSeconds, " s");
    SubnetRecord &r = _records[static_cast<std::size_t>(id)];
    NASPIPE_ASSERT(!r.done, "SN", id, " completed twice");
    r = SubnetRecord{atSeconds, loss, true};
    _inflight--;
    _finished++;
    if (effectiveFeedbackLag() == 0)
        deliverScoresBelow(_config.totalSubnets);
    return ckptEnabled() && _finished == _nextCkptAt;
}

TrainingSession::Step
TrainingSession::applyCompletion(SubnetId id, float loss,
                                 double phaseSeconds,
                                 double phaseBusySeconds)
{
    NASPIPE_ASSERT(_backend, "no execution backend attached");
    bool atBarrier =
        recordCompletion(id, loss, _secOffset + phaseSeconds);
    Step step;
    // Completions form the fault plan's logical clock, the same on
    // every executor. Each spec fires once, even after a rollback
    // rewinds the count past its trigger.
    for (const FaultSpec &f : _injector.due(_finished)) {
        DueFault due{f, std::clamp(f.stage, 0, _numStages - 1), 0,
                     faultIsFailStop(f.kind)};
        due.link = std::min(due.stage, _numStages - 2);
        Tick at = ticksFromSec(phaseSeconds);
        _trace->add(TraceRecord{at, at, due.stage, TraceKind::Fault,
                                -1, f.describe()});
        inform("fault injected: ", f.describe());
        bool linkFault = f.kind == FaultKind::LinkDrop ||
                         f.kind == FaultKind::LinkDegrade;
        if (linkFault && _numStages < 2)
            continue;  // a one-stage pipeline has no links
        step.failStop = step.failStop || due.failStop;
        _backend->applyFault(due);
    }
    if (step.failStop || !atBarrier)
        return step;
    step.checkpointed = true;
    step.ckptWriteSeconds = commitCheckpoint(buildCheckpoint(
        _secOffset + phaseSeconds, _busyOffset + phaseBusySeconds));
    return step;
}

int
TrainingSession::ckptStride() const
{
    int stride = _config.ckptInterval;
    if (_model.bulkFlush) {
        // Under bulk flushing only a closed bulk leaves the store
        // drained (deferred updates land at the bulk barrier), so
        // checkpoint boundaries round up to bulk multiples.
        int bulk = _model.effectiveBulk(_numStages);
        stride = (stride + bulk - 1) / bulk * bulk;
    }
    return stride;
}

int
TrainingSession::boundaryAfter(int completedCount) const
{
    int stride = ckptStride();
    return (completedCount / stride + 1) * stride;
}

RunCheckpoint
TrainingSession::buildCheckpoint(double nowSeconds,
                                 double busySeconds) const
{
    RunCheckpoint ckpt;
    ckpt.seed = _config.seed;
    ckpt.spaceBlocks = static_cast<std::uint32_t>(_space.numBlocks());
    ckpt.spaceChoices =
        static_cast<std::uint32_t>(_space.choicesPerBlock());
    ckpt.precision = _config.precision;
    ckpt.totalSubnets =
        static_cast<std::uint64_t>(_config.totalSubnets);
    ckpt.completed = static_cast<std::uint64_t>(_finished);
    ckpt.simSeconds = nowSeconds;
    ckpt.busySeconds = busySeconds;
    ckpt.checkpointsWritten =
        static_cast<std::uint64_t>(_checkpointsWritten + 1);
    ckpt.losses.reserve(static_cast<std::size_t>(_finished));
    ckpt.completionSec.reserve(static_cast<std::size_t>(_finished));
    for (std::size_t i = 0; i < static_cast<std::size_t>(_finished);
         i++) {
        const SubnetRecord &r = _records.at(i);
        NASPIPE_ASSERT(r.done, "checkpoint with SN", i, " not done");
        ckpt.losses.push_back(r.loss);
        ckpt.completionSec.push_back(r.completionSec);
    }
    ckpt.storeBytes = _store->serialize();
    ckpt.accessLogBytes = _store->accessLog().serialize();
    return ckpt;
}

double
TrainingSession::commitCheckpoint(const RunCheckpoint &ckpt)
{
    NASPIPE_ASSERT(_inflight == 0, "checkpoint barrier reached with ",
                   _inflight, " subnets in flight");
    // Exact size: no growth slack stays resident until the next
    // checkpoint, in every job of a service.
    _lastCkpt = ckpt.serialize();
    _checkpointsWritten++;
    _checkpointBytes = _lastCkpt.size();
    if (!_config.ckptPath.empty() &&
        !ckpt.saveFileAtomic(_config.ckptPath)) {
        warn("continuing without the on-disk checkpoint");
    }
    double writeSec =
        static_cast<double>(_lastCkpt.size()) / kCkptWriteBytesPerSec +
        0.001;
    _checkpointSecondsTotal += writeSec;
    _nextCkptAt = boundaryAfter(_finished);
    return writeSec;
}

bool
TrainingSession::compatible(const RunCheckpoint &ckpt) const
{
    // Version 1 files carry no precision: they resume as before.
    if (ckpt.formatVersion >= 2 && ckpt.precision != _config.precision) {
        warn("run checkpoint was written under precision ",
             kernels::precisionModeName(ckpt.precision),
             "; this run uses ",
             kernels::precisionModeName(_config.precision));
        return false;
    }
    if (ckpt.seed == _config.seed &&
        ckpt.spaceBlocks ==
            static_cast<std::uint32_t>(_space.numBlocks()) &&
        ckpt.spaceChoices ==
            static_cast<std::uint32_t>(_space.choicesPerBlock()) &&
        ckpt.totalSubnets ==
            static_cast<std::uint64_t>(_config.totalSubnets)) {
        return true;
    }
    warn("run checkpoint does not match this run: seed ", ckpt.seed,
         " space ", ckpt.spaceBlocks, "x", ckpt.spaceChoices,
         " total ", ckpt.totalSubnets, " vs seed ", _config.seed,
         " space ", _space.numBlocks(), "x",
         _space.choicesPerBlock(), " total ", _config.totalSubnets);
    return false;
}

bool
TrainingSession::restore(const RunCheckpoint &ckpt)
{
    if (!restoreState(ckpt, {ckpt.storeBytes, ckpt.accessLogBytes}))
        return false;
    if (ckpt.formatVersion == RunCheckpoint::kFormatVersion)
        _lastCkpt = ckpt.serialize();
    return true;
}

bool
TrainingSession::restoreState(const RunCheckpoint &ckpt,
                              const RunCheckpoint::Sections &sections)
{
    NASPIPE_ASSERT(_backend, "no execution backend attached");
    if (!compatible(ckpt) || !_store->load(sections.store))
        return false;
    AccessLog &log = _store->accessLog();
    if (!(ckpt.formatVersion == 1 ? log.loadV1From(sections.accessLog)
                                  : log.loadFrom(sections.accessLog))) {
        warn("run checkpoint: access log unreadable");
        return false;
    }

    const auto completed = static_cast<SubnetId>(ckpt.completed);
    _records.reserve(static_cast<std::size_t>(completed));
    for (std::size_t i = 0; i < ckpt.completed; i++) {
        NASPIPE_ASSERT(ckpt.completionSec[i] >= 0.0 &&
                           ckpt.losses[i] >= 0.0,
                       "checkpoint holds an invalid completion of SN",
                       i);
        _records.push_back(SubnetRecord{
            ckpt.completionSec[i], static_cast<float>(ckpt.losses[i]),
            true});
    }

    // Replay the sampler with feedback-lag-faithful score delivery:
    // draws are a pure function of (seed, scores-by-ID), so this
    // reproduces the exact subnet sequence the checkpointed run drew
    // — the CSP property Definition 1 rests on.
    int lag = effectiveFeedbackLag();
    for (SubnetId i = 0; i < completed; i++) {
        if (lag > 0)
            deliverScoresBelow(i - lag + 1);
        Subnet sn = _sampler->next();
        NASPIPE_ASSERT(sn.id() == i, "sampler replay out of sync: ",
                       sn.id(), " vs ", i);
        _partitions.push_back(
            _model.balancedPartition
                ? _partitioner->balanced(sn, _numStages)
                : Partitioner::even(sn.size(), _numStages));
        _subnets.push_back(std::move(sn));
        _backend->restoreCompleted(i);
    }
    if (lag == 0)
        deliverScoresBelow(completed);

    _injected = static_cast<int>(completed);
    _finished = static_cast<int>(completed);
    _inflight = 0;
    if (ckptEnabled())
        _nextCkptAt = boundaryAfter(static_cast<int>(completed));
    // An older checkpoint becomes a current one for later rollbacks:
    // its log section is re-encoded from the restored log, and its
    // store blob, any version the store loads, is kept as it is.
    if (ckpt.formatVersion != RunCheckpoint::kFormatVersion) {
        RunCheckpoint upgraded = ckpt;
        upgraded.formatVersion = RunCheckpoint::kFormatVersion;
        upgraded.precision = _config.precision;
        upgraded.storeBytes.assign(sections.store);
        upgraded.accessLogBytes = _store->accessLog().serialize();
        _lastCkpt = upgraded.serialize();
    }
    return true;
}

bool
TrainingSession::resume(const std::string &path)
{
    std::string bytes;
    RunCheckpoint ckpt;
    RunCheckpoint::Sections sections;
    if (!readFile(path, bytes) || !ckpt.load(bytes, &sections) ||
        !restoreState(ckpt, sections)) {
        return false;
    }
    setTimeOffsets(ckpt.simSeconds, ckpt.busySeconds);
    _checkpointsWritten = static_cast<int>(ckpt.checkpointsWritten);
    // A current file already is the rollback target's bytes.
    if (ckpt.formatVersion == RunCheckpoint::kFormatVersion)
        _lastCkpt = std::move(bytes);
    return true;
}

void
TrainingSession::setTimeOffsets(double secOffset, double busyOffset)
{
    _secOffset = secOffset;
    _busyOffset = busyOffset;
}

std::optional<TrainingSession::Rollback>
TrainingSession::rollback(double secAtCrash, double busyAtCrash,
                          double extraDowntimeSeconds,
                          const std::function<void()> &rebuildPhase)
{
    double downtimeSeconds = kRecoverySeconds + extraDowntimeSeconds;
    // Restored from the rollback target's bytes in place, unchanged.
    RunCheckpoint ckpt;
    RunCheckpoint::Sections sections;
    bool haveCkpt = !_lastCkpt.empty();
    if (haveCkpt) {
        bool ok = ckpt.load(_lastCkpt, &sections);
        NASPIPE_ASSERT(ok, "in-memory checkpoint unreadable");
    }
    Rollback report{_finished, static_cast<int>(ckpt.completed)};
    _recoveries++;
    _subnetsReplayed += report.fromCompleted - report.toCompleted;
    _lostComputeSeconds +=
        std::max(0.0, busyAtCrash - ckpt.busySeconds);
    _recoverySeconds += downtimeSeconds;
    inform("rollback from ", report.fromCompleted, " to ",
           report.toCompleted, " completed subnets (",
           report.fromCompleted - report.toCompleted, " to replay)");

    if (!initRun())
        return std::nullopt;  // cannot happen: the same plan fit before
    if (rebuildPhase)
        rebuildPhase();
    if (_config.recoveryObserver)
        _config.recoveryObserver(_recoveries);
    setTimeOffsets(secAtCrash + downtimeSeconds, ckpt.busySeconds);
    if (haveCkpt && !restoreState(ckpt, sections))
        return std::nullopt;
    return report;
}

RunResult
TrainingSession::collect(double totalSeconds, double busyTotal)
{
    RunResult out;
    out.plan = _plan;
    for (std::size_t i = 0; i < _records.size(); i++) {
        if (_records[i].done)
            out.losses.emplace_hint(out.losses.end(),
                                    static_cast<SubnetId>(i),
                                    _records[i].loss);
    }
    out.store = _store;
    out.trace = _trace;
    // Moved, not copied: collect() ends the run, so the sampled
    // subnets exist once (subnetOf/partitionOf refuse from here on).
    out.sampled = std::move(_subnets);  // in sequence order
    out.partitions = std::move(_partitions);
    _collected = true;

    RunMetrics &m = out.metrics;
    m.finishedSubnets = _finished;
    m.batch = _batch;
    m.simSeconds = totalSeconds;
    if (totalSeconds > 0.0) {
        m.samplesPerSec =
            static_cast<double>(_finished) * _batch / totalSeconds;
        m.subnetsPerHour =
            static_cast<double>(_finished) / totalSeconds * 3600.0;
    }
    if (_finished > 0)
        m.meanExecSeconds = busyTotal / _finished;

    m.gpuMemFactor =
        static_cast<double>(_plan.residentParamBytesPerGpu +
                            _plan.activationBytesPerGpu +
                            CapacityPlanner::kReserveBytes) /
        static_cast<double>(GpuConfig{}.memoryBytes) *
        _numStages;
    m.cpuMemBytes = _plan.cpuMemBytesTotal;
    m.reportedParamBytes = _plan.reportedParamBytes;

    m.checkpointsWritten = _checkpointsWritten;
    m.checkpointBytes = _checkpointBytes;
    m.checkpointSeconds = _checkpointSecondsTotal;

    m.faultsInjected = _injector.firedCount();
    m.recoveries = _recoveries;
    m.subnetsReplayed = _subnetsReplayed;
    m.recoverySeconds = _recoverySeconds;
    m.lostComputeSeconds = _lostComputeSeconds;

    // The "supernet loss" is the trailing-window mean over the last
    // subnets *by sequence ID* (not completion order), so the metric
    // itself is invariant across GPU counts whenever the per-subnet
    // losses are.
    if (!out.losses.empty()) {
        std::size_t window =
            std::min<std::size_t>(kLossWindow, out.losses.size());
        double total = 0.0;
        auto it = out.losses.end();
        for (std::size_t i = 0; i < window; i++)
            total += (--it)->second;
        m.finalLoss = total / static_cast<double>(window);
        m.finalScore = lossToScore(m.finalLoss, _scoreScale);
    }
    out.curve = convergenceCurve(_records, _scoreScale);

    if (_config.numeric) {
        out.supernetHash = _store->supernetHash();
        m.supernetHash = out.supernetHash;
        m.causalViolations = _store->accessLog().violatedLayers();

        NASPIPE_ASSERT(_backend, "no execution backend attached");
        SearchResult search =
            searchBestSubnet(*_exec, out.sampled, _scoreScale,
                             deriveSeed(_config.seed, "search"),
                             _backend->searchThreads(_numStages));
        out.bestSubnet = search.best.id();
        out.searchAccuracy = search.accuracy;
    }
    return out;
}

} // namespace naspipe
