#include "session/training_session.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "tensor/loss.h"

namespace naspipe {

TrainingSession::TrainingSession(const SearchSpace &space,
                                 const RuntimeConfig &config)
    : _space(space), _config(config), _model(config.system),
      _numStages(config.numStages),
      _activation(config.activation.bytesPerSample
                      ? config.activation
                      : defaultActivationModel(space.family())),
      _scoreScale(config.scoreScale > 0.0
                      ? config.scoreScale
                      : defaultScoreScale(space.family())),
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
    CapacityPlanner planner(_space, _config.cluster.gpu, _activation);
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
    _tracker = std::make_unique<ConvergenceTracker>(_scoreScale);
    _trace = std::make_shared<Trace>();
    _trace->enabled(_config.traceEnabled);

    _subnets.clear();
    _partitions.clear();
    _losses.clear();
    _completionSec.clear();
    _scoreBuffer.clear();
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
    NASPIPE_ASSERT(id >= 0 &&
                       static_cast<std::size_t>(id) < _subnets.size(),
                   "unknown SN", id);
    return _subnets[static_cast<std::size_t>(id)];
}

const SubnetPartition &
TrainingSession::partitionOf(SubnetId id) const
{
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
        auto it = _scoreBuffer.find(_nextScoreToReport);
        if (it == _scoreBuffer.end())
            break;
        _sampler->reportScore(it->first, it->second);
        _scoreBuffer.erase(it);
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
    if (ckptEnabled() && _injected >= _nextCkptAt)
        return false;
    if (!_backend->canAdmit(_injected))
        return false;
    int lag = effectiveFeedbackLag();
    if (lag > 0) {
        deliverScoresBelow(_injected - lag + 1);
        if (_injected - _nextScoreToReport >= lag)
            return false;
    }
    return true;
}

int
TrainingSession::pump(int maxCount)
{
    NASPIPE_ASSERT(_backend, "no execution backend attached");
    int limit = _model.effectiveInflight(_numStages);
    int lag = effectiveFeedbackLag();
    int count = 0;
    while (count < maxCount && _injected < _config.totalSubnets &&
           _inflight < limit) {
        SubnetId nextId = _injected;
        // Drain the pipeline for the next checkpoint barrier: at most
        // nextCkptAt subnets are ever injected before the barrier, so
        // finished == nextCkptAt implies inflight == 0 — the drained
        // state a checkpoint captures is a pure function of the
        // completed count under CSP.
        if (ckptEnabled() && _injected >= _nextCkptAt)
            break;
        if (!_backend->canAdmit(nextId))
            break;
        if (lag > 0) {
            // Feedback-driven samplers see *exactly* the scores of
            // subnets <= i - lag before drawing subnet i, so their
            // draws replay identically on any cluster.
            deliverScoresBelow(nextId - lag + 1);
            if (nextId - _nextScoreToReport >= lag)
                break;  // required scores not yet available
        }
        Subnet sn = _sampler->next();
        NASPIPE_ASSERT(sn.id() == nextId, "sampler IDs out of sync");

        _partitions.push_back(
            _model.balancedPartition
                ? _partitioner->balanced(sn, _numStages)
                : Partitioner::even(sn.size(), _numStages));
        _subnets.push_back(std::move(sn));
        if (_config.numeric)
            _exec->beginSubnet(_subnets.back());
        _backend->admit(nextId);
        _injected++;
        _inflight++;
        count++;
    }
    return count;
}

bool
TrainingSession::recordCompletion(SubnetId id, float loss,
                                  double atSeconds)
{
    _inflight--;
    _finished++;
    _losses[id] = loss;
    _completionSec[id] = atSeconds;
    _tracker->addSample(atSeconds, loss);
    _scoreBuffer[id] = lossToScore(loss, _scoreScale);
    if (effectiveFeedbackLag() == 0)
        deliverScoresBelow(_config.totalSubnets);
    return ckptEnabled() && _finished == _nextCkptAt;
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
    for (SubnetId i = 0; i < _finished; i++) {
        ckpt.losses.push_back(_losses.at(i));
        ckpt.completionSec.push_back(_completionSec.at(i));
    }
    std::ostringstream ss(std::ios::binary);
    _store->save(ss);
    ckpt.storeBytes = ss.str();
    std::ostringstream ls(std::ios::binary);
    _store->accessLog().saveTo(ls);
    ckpt.accessLogBytes = ls.str();
    return ckpt;
}

double
TrainingSession::commitCheckpoint(const RunCheckpoint &ckpt)
{
    NASPIPE_ASSERT(_inflight == 0, "checkpoint barrier reached with ",
                   _inflight, " subnets in flight");
    std::ostringstream os(std::ios::binary);
    bool ok = ckpt.save(os);
    NASPIPE_ASSERT(ok, "in-memory checkpoint serialization failed");
    _lastCkpt = os.str();
    _checkpointsWritten++;
    _checkpointBytes = _lastCkpt.size();
    if (!_config.ckptPath.empty() &&
        !ckpt.saveFileAtomic(_config.ckptPath)) {
        warn("continuing without the on-disk checkpoint");
    }
    double writeSec = static_cast<double>(_lastCkpt.size()) /
                          std::max(1.0, _config.ckptWriteBytesPerSec) +
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
    NASPIPE_ASSERT(_backend, "no execution backend attached");
    if (!compatible(ckpt))
        return false;
    {
        std::istringstream in(ckpt.storeBytes);
        if (!_store->load(in))
            return false;
    }
    {
        std::istringstream in(ckpt.accessLogBytes);
        AccessLog &log = _store->accessLog();
        if (!(ckpt.formatVersion == 1 ? log.loadV1From(in)
                                      : log.loadFrom(in))) {
            warn("run checkpoint: access log unreadable");
            return false;
        }
    }

    const auto completed = static_cast<SubnetId>(ckpt.completed);
    for (SubnetId i = 0; i < completed; i++) {
        auto loss = static_cast<float>(
            ckpt.losses[static_cast<std::size_t>(i)]);
        _losses[i] = loss;
        _completionSec[i] =
            ckpt.completionSec[static_cast<std::size_t>(i)];
        _scoreBuffer[i] = lossToScore(loss, _scoreScale);
    }
    {
        // Re-feed the convergence tracker in completion-time order.
        std::vector<std::pair<double, float>> samples;
        samples.reserve(static_cast<std::size_t>(completed));
        for (SubnetId i = 0; i < completed; i++)
            samples.emplace_back(_completionSec[i], _losses[i]);
        std::sort(samples.begin(), samples.end());
        for (const auto &[when, loss] : samples)
            _tracker->addSample(when, loss);
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
    // A later fail-stop fault rolls back to this state. Its log
    // section is re-encoded from the restored log, which also turns
    // a version 1 checkpoint into a current one.
    RunCheckpoint target = ckpt;
    target.formatVersion = RunCheckpoint::kFormatVersion;
    target.precision = _config.precision;
    std::ostringstream ls(std::ios::binary);
    _store->accessLog().saveTo(ls);
    target.accessLogBytes = ls.str();
    std::ostringstream os(std::ios::binary);
    if (target.save(os))
        _lastCkpt = os.str();
    return true;
}

bool
TrainingSession::resume(const std::string &path)
{
    RunCheckpoint ckpt;
    if (!ckpt.loadFile(path) || !restore(ckpt))
        return false;
    setTimeOffsets(ckpt.simSeconds, ckpt.busySeconds);
    _checkpointsWritten = static_cast<int>(ckpt.checkpointsWritten);
    return true;
}

void
TrainingSession::setTimeOffsets(double secOffset, double busyOffset)
{
    _secOffset = secOffset;
    _busyOffset = busyOffset;
}

std::vector<FaultSpec>
TrainingSession::dueFaults(Tick at)
{
    std::vector<FaultSpec> due = _injector.due(_finished);
    for (const FaultSpec &f : due) {
        int stage = std::clamp(f.stage, 0, _numStages - 1);
        _trace->add(TraceRecord{at, at, stage, TraceKind::Fault, -1,
                                f.describe()});
        inform("fault injected: ", f.describe());
    }
    return due;
}

std::optional<TrainingSession::Rollback>
TrainingSession::rollback(double secAtCrash, double busyAtCrash,
                          double downtimeSeconds,
                          const std::function<void()> &rebuildPhase)
{
    RunCheckpoint ckpt;
    bool haveCkpt = !_lastCkpt.empty();
    if (haveCkpt) {
        std::istringstream in(_lastCkpt);
        bool ok = ckpt.load(in);
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
    setTimeOffsets(secAtCrash + downtimeSeconds, ckpt.busySeconds);
    if (haveCkpt && !restore(ckpt))
        return std::nullopt;
    return report;
}

RunResult
TrainingSession::collect(double totalSeconds, double busyTotal)
{
    RunResult out;
    out.plan = _plan;
    out.losses = _losses;
    out.store = _store;
    out.trace = _trace;
    out.sampled = _subnets;  // by construction in sequence order
    out.partitions = _partitions;

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
        static_cast<double>(_config.cluster.gpu.memoryBytes) *
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
    if (!_losses.empty()) {
        std::size_t window =
            std::min<std::size_t>(16, _losses.size());
        double total = 0.0;
        auto it = _losses.end();
        for (std::size_t i = 0; i < window; i++)
            total += (--it)->second;
        m.finalLoss = total / static_cast<double>(window);
        m.finalScore = lossToScore(m.finalLoss, _scoreScale);
    }
    out.curve = _tracker->curve(64);

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
