#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "common/logging.h"
#include "exec/commit_gate.h"
#include "probe.h"
#include "session/training_session.h"
#include "supernet/sampler.h"

namespace perfbench {

using namespace naspipe;

Tracer::Scope::Scope(Tracer *tracer, const char *name) : _tracer(tracer)
{
    if (!_tracer)
        return;
    _index = static_cast<int>(_tracer->_spans.size());
    _tracer->_spans.push_back(Span{name, wallNow(), 0.0, _tracer->_open});
    _tracer->_open = _index;
}

Tracer::Scope::~Scope()
{
    if (!_tracer)
        return;
    Span &span = _tracer->_spans[static_cast<std::size_t>(_index)];
    span.end = wallNow();
    _tracer->_open = span.parent;
}

std::map<std::string, Tracer::Total>
Tracer::totals() const
{
    std::vector<double> childSec(_spans.size(), 0.0);
    for (const Span &span : _spans) {
        if (span.parent >= 0)
            childSec[static_cast<std::size_t>(span.parent)] +=
                span.end - span.start;
    }
    std::map<std::string, Total> out;
    for (std::size_t i = 0; i < _spans.size(); i++) {
        double dur = _spans[i].end - _spans[i].start;
        Total &t = out[_spans[i].name];
        t.totalSec += dur;
        t.selfSec += dur - childSec[i];
        t.count++;
    }
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    double origin = _spans.empty() ? 0.0 : _spans.front().start;
    out << "{\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < _spans.size(); i++) {
        const Span &s = _spans[i];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%zu,\"parent\":%d}}",
                      i ? ",\n" : "\n", s.name,
                      (s.start - origin) * 1e6, (s.end - s.start) * 1e6,
                      i, s.parent);
        out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

namespace {

/**
 * Executes nothing at admission: admitted subnets queue up and the
 * replay loop runs them to completion one at a time, in sequence
 * order — plain sequential training, the reference CSP must equal.
 */
struct SyncBackend : ExecutionBackend {
    const SearchSpace &space;
    TrainingSession &session;
    CommitGate &gate;
    Tracer *tracer;
    std::vector<SubnetId> admitted;
    std::uint64_t gateOps = 0;

    SyncBackend(const SearchSpace &s, TrainingSession &ts, CommitGate &g,
                Tracer *t)
        : space(s), session(ts), gate(g), tracer(t)
    {
    }

    void
    admit(SubnetId id) override
    {
        Tracer::Scope span(tracer, "exec.gate_register");
        const Subnet &sn = session.subnetOf(id);
        for (int b = 0; b < sn.size(); b++) {
            if (space.parameterized(b, sn.choice(b))) {
                gate.registerActivation(sn.layer(b).key(), id);
                gateOps++;
            }
        }
        admitted.push_back(id);
    }

    void restoreCompleted(SubnetId) override {}

    /** Claims of @p sn's parameterized layers in blocks [lo, hi]. */
    std::vector<CommitGate::Claim>
    claims(const Subnet &sn, int lo, int hi) const
    {
        std::vector<CommitGate::Claim> out;
        for (int b = lo; b <= hi; b++) {
            if (space.parameterized(b, sn.choice(b)))
                out.push_back(gate.resolve(sn.layer(b).key(), sn.id()));
        }
        return out;
    }

    /** Run subnet @p id through every stage; returns its loss. */
    float
    run(SubnetId id, int numStages)
    {
        const Subnet &sn = session.subnetOf(id);
        NumericExecutor &exec = session.exec();
        std::vector<std::vector<CommitGate::Claim>> stageClaims(
            static_cast<std::size_t>(numStages));
        for (int k = 0; k < numStages; k++) {
            auto [lo, hi] = session.blockRange(k, id);
            {
                Tracer::Scope span(tracer, "exec.gate_read");
                stageClaims[static_cast<std::size_t>(k)] =
                    claims(sn, lo, hi);
                for (const CommitGate::Claim &c :
                     stageClaims[static_cast<std::size_t>(k)]) {
                    gateOps++;
                    NASPIPE_ASSERT(gate.readable(c),
                                   "sequential replay blocked on layer ",
                                   c.layerKey, " for subnet ", id);
                }
            }
            if (lo <= hi) {
                Tracer::Scope span(tracer, "train.forward");
                exec.forwardStage(sn, lo, hi, UpdateSemantics::Immediate,
                                  k);
            }
        }
        {
            Tracer::Scope span(tracer, "train.loss");
            exec.computeLoss(sn);
        }
        for (int k = numStages - 1; k >= 0; k--) {
            auto [lo, hi] = session.blockRange(k, id);
            if (lo <= hi) {
                Tracer::Scope span(tracer, "train.backward");
                exec.backwardStage(sn, lo, hi, UpdateSemantics::Immediate,
                                   k);
            }
            Tracer::Scope span(tracer, "exec.gate_commit");
            for (const CommitGate::Claim &c :
                 stageClaims[static_cast<std::size_t>(k)]) {
                gate.commit(c, k);
                gateOps++;
            }
        }
        Tracer::Scope span(tracer, "train.finish");
        return exec.finishSubnet(sn);
    }
};

std::uint64_t
serializedSize(const RunCheckpoint &ckpt)
{
    std::ostringstream out(std::ios::binary);
    ckpt.save(out);
    return out.str().size();
}

/**
 * The replay loop proper: initRun, then pump / run / record /
 * checkpoint until every subnet finished, then collect.
 */
RunResult
drive(TrainingSession &session, SyncBackend &backend, int numStages,
      double start, ReplayOutcome &out)
{
    Tracer *tracer = backend.tracer;
    {
        Tracer::Scope span(tracer, "session.init");
        NASPIPE_ASSERT(session.initRun(), "replay: capacity plan failed");
        session.store()->materializeAll();
    }
    while (session.finished() < session.totalSubnets()) {
        {
            Tracer::Scope span(tracer, "session.pump");
            session.pump();
        }
        NASPIPE_ASSERT(!backend.admitted.empty(), "replay: pump stalled");
        std::vector<SubnetId> batch;
        batch.swap(backend.admitted);
        for (SubnetId id : batch) {
            float loss = backend.run(id, numStages);
            bool atBarrier = false;
            {
                Tracer::Scope span(tracer, "session.record");
                atBarrier = session.recordCompletion(id, loss,
                                                     wallNow() - start);
            }
            if (atBarrier) {
                Tracer::Scope span(tracer, "session.ckpt");
                RunCheckpoint ckpt =
                    session.buildCheckpoint(wallNow() - start, 0.0);
                session.commitCheckpoint(ckpt);
                out.ckptCount++;
                out.lastCkptBytes = session.lastCheckpoint().size();
            }
        }
    }
    Tracer::Scope span(tracer, "session.collect");
    return session.collect(wallNow() - start, 0.0);
}

} // namespace

ReplayOutcome
replaySequential(const SearchSpace &space, RuntimeConfig config,
                 Tracer *tracer)
{
    config.faults.clear();
    ReplayOutcome out;
    TrainingSession session(space, config);
    CommitGate gate;
    SyncBackend backend(space, session, gate, tracer);
    session.attach(&backend);
    RunResult result;
    double start = wallNow();
    {
        Tracer::Scope root(tracer, "replay");
        result = drive(session, backend, config.numStages, start, out);
    }
    out.wall = wallNow() - start;

    out.hash = result.supernetHash;
    out.violations = result.metrics.causalViolations;
    out.finalLoss = trailingLoss(result.losses);
    out.subnets = session.finished();
    out.gateOps = backend.gateOps;
    out.accessRecords = session.store()->accessLog().totalRecords();
    RunCheckpoint end = session.buildCheckpoint(out.wall, 0.0);
    out.storeSaveBytes = end.storeBytes.size();
    out.logSaveBytes = end.accessLogBytes.size();
    out.endCkptBytes = serializedSize(end);
    return out;
}

double
trailingLoss(const std::map<SubnetId, float> &losses)
{
    if (losses.empty())
        return 0.0;
    std::size_t window = std::max<std::size_t>(1, losses.size() / 4);
    SubnetId first = static_cast<SubnetId>(losses.size() - window);
    double sum = 0.0;
    for (auto it = losses.lower_bound(first); it != losses.end(); ++it)
        sum += it->second;
    return sum / static_cast<double>(window);
}

RuntimeConfig
withStream(RuntimeConfig config, Stream stream)
{
    config.samplerFactory = [stream = std::move(stream)](
                                const SearchSpace &, std::uint64_t) {
        return std::make_unique<FixedSequenceSampler>(stream);
    };
    return config;
}

} // namespace perfbench
