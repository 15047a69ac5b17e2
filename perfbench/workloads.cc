#include "workloads.h"

#include <pthread.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>

#include "common/logging.h"
#include "common/rng.h"
#include "core/engine.h"
#include "exec/parallel_runtime.h"
#include "schedule/scheduler.h"
#include "serve/service.h"
#include "supernet/sampler.h"

#include "replay.h"

namespace perfbench {

using namespace naspipe;

namespace {

constexpr int kSparseSubnets = 4096;
constexpr int kSparseCkpt = 1024;
constexpr int kDenseSubnets = 4096;
constexpr int kServeJobs = 20;
constexpr int kServeCkpt = 128;

const char *const kServeSpaces[] = {"NLP.c1", "CV.c1", "NLP.c3", "CV.c3"};

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/**
 * The SPOS (uniform single-path) sampler the session would build by
 * default, plus two clock stamps: the first draw, which is the first
 * admission, and the delivery of the last subnet's score, which with
 * no feedback lag happens at the run's last completion.
 */
class WindowSampler : public SubnetSampler
{
  public:
    struct Window {
        int total = 0;
        Stamp first;
        Stamp last;
        bool opened = false;
        bool closed = false;
    };

    WindowSampler(const SearchSpace &space, std::uint64_t seed,
                  Window &window)
        : _inner(space, seed), _window(window)
    {
    }

    Subnet
    next() override
    {
        if (!_window.opened) {
            _window.first = stampNow();
            _window.opened = true;
        }
        allocateId();
        return _inner.next();
    }

    void
    reportScore(SubnetId id, double) override
    {
        if (id == _window.total - 1) {
            _window.last = stampNow();
            _window.closed = true;
        }
    }

  private:
    UniformSampler _inner;
    Window &_window;
};

Unit
unitOf(const RunResult &r, bool done, int recoveries, int replayed)
{
    Unit u;
    u.done = done;
    u.hash = r.supernetHash;
    u.violations = r.metrics.causalViolations;
    u.finalLoss = trailingLoss(r.losses);
    u.ckptBytes = r.metrics.checkpointBytes;
    u.ckptCount = r.metrics.checkpointsWritten;
    u.recoveries = recoveries;
    u.replayed = replayed;
    u.gateCommits = r.metrics.gateCommits;
    u.accessRecords = r.store ? r.store->accessLog().totalRecords() : 0;
    return u;
}

Rep
runSoloRep(const Workload &w)
{
    Rep rep;
    WindowSampler::Window window;
    window.total = w.subnets;
    double t0 = wallNow();
    SearchSpace space = makeSpaceByName(w.space);
    RuntimeConfig config = soloConfig(w);
    config.samplerFactory = [&window](const SearchSpace &s,
                                      std::uint64_t seed) {
        return std::make_unique<WindowSampler>(s, seed, window);
    };
    RunResult r = runTrainingThreaded(space, config);
    rep.resultS = wallNow() - t0;

    rep.outcomeOk = !r.failed && !r.oom && window.opened &&
                    window.closed &&
                    r.metrics.finishedSubnets == w.subnets;
    rep.setupS = window.first.wall - t0;
    rep.trainWallS = window.last.wall - window.first.wall;
    rep.trainCpuS = window.last.cpu - window.first.cpu;
    rep.subnets = w.subnets;
    rep.jobDoneS.push_back(window.last.wall - t0);
    rep.units.push_back(unitOf(r, rep.outcomeOk, r.metrics.recoveries,
                               r.metrics.subnetsReplayed));
    rep.metrics = r.metrics;
    return rep;
}

/**
 * Watches a running service from a side thread: the first admission
 * (set-up end, training window start), each job's Done and the last
 * one (window end). CPU over the window is charged without the
 * watcher's own thread; the coordinator's share is split out so the
 * pool threads' CPU is known too.
 */
struct ServeWatch {
    ServeWatch(const serve::SearchService &s, double start)
        : svc(s), t0(start)
    {
    }

    const serve::SearchService &svc;
    double t0;
    clockid_t coordClock{};
    std::atomic<bool> stop{false};

    bool opened = false;
    bool closed = false;
    Stamp first, last;
    double watchCpu0 = 0.0, watchCpu1 = 0.0;
    double coordCpu0 = 0.0, coordCpu1 = 0.0;
    std::vector<double> doneAt;

    void
    run(int jobs, int firstId)
    {
        doneAt.assign(static_cast<std::size_t>(jobs), -1.0);
        while (true) {
            // One more poll after the stop request: run() may return
            // between two polls, right after the last job's Done.
            bool stopping = stop.load(std::memory_order_acquire);
            std::vector<serve::JobStatus> st = svc.status();
            double now = wallNow();
            int terminal = 0;
            for (const serve::JobStatus &s : st) {
                if (!opened && s.injected > 0) {
                    first = Stamp{now, processCpu()};
                    watchCpu0 = threadCpu();
                    coordCpu0 = clockSeconds(coordClock);
                    opened = true;
                }
                bool end = s.state == serve::JobState::Done ||
                           s.state == serve::JobState::Failed;
                auto &at =
                    doneAt[static_cast<std::size_t>(s.id - firstId)];
                if (end && at < 0.0)
                    at = now - t0;
                terminal += end;
            }
            if (opened && terminal == jobs) {
                last = Stamp{now, processCpu()};
                watchCpu1 = threadCpu();
                coordCpu1 = clockSeconds(coordClock);
                closed = true;
                return;
            }
            if (stopping)
                return;
            std::this_thread::sleep_for(
                opened ? std::chrono::microseconds(1000)
                       : std::chrono::microseconds(50));
        }
    }
};

Rep
runServeRep(const Workload &w)
{
    Rep rep;
    double t0 = wallNow();
    serve::ServiceConfig sc;
    sc.numStages = w.workers;
    serve::SearchService svc(sc);
    double s0 = wallNow();
    std::string why;
    std::vector<int> ids = svc.submitBatch(w.jobs, &why);
    rep.submitMs = (wallNow() - s0) * 1e3;
    NASPIPE_ASSERT(ids.size() == w.jobs.size(), "submitBatch: ", why);

    ServeWatch watch(svc, t0);
    NASPIPE_ASSERT(
        pthread_getcpuclockid(pthread_self(), &watch.coordClock) == 0,
        "no CPU clock for the coordinator thread");
    std::thread watcher([&] {
        watch.run(static_cast<int>(ids.size()), ids.front());
    });
    int outcome = svc.run();
    rep.resultS = wallNow() - t0;
    watch.stop.store(true, std::memory_order_release);
    watcher.join();

    rep.outcomeOk = outcome == serve::SearchService::AllDone &&
                    watch.opened && watch.closed;
    rep.setupS = watch.first.wall - t0;
    rep.trainWallS = watch.last.wall - watch.first.wall;
    rep.trainCpuS = (watch.last.cpu - watch.first.cpu) -
                    (watch.watchCpu1 - watch.watchCpu0);
    rep.workerCpuS =
        rep.trainCpuS - (watch.coordCpu1 - watch.coordCpu0);
    rep.jobDoneS = watch.doneAt;
    for (int id : ids) {
        const serve::ServeJob *job = svc.job(id);
        bool done = job->state() == serve::JobState::Done;
        rep.units.push_back(unitOf(job->result(), done,
                                   job->recoveries(),
                                   job->subnetsReplayed()));
        rep.subnets += job->spec().steps;
    }
    return rep;
}

} // namespace

bool
Unit::sameCounts(const Unit &o) const
{
    return done == o.done && hash == o.hash &&
           violations == o.violations &&
           sameBits(finalLoss, o.finalLoss) && ckptBytes == o.ckptBytes &&
           ckptCount == o.ckptCount && recoveries == o.recoveries &&
           replayed == o.replayed && gateCommits == o.gateCommits &&
           accessRecords == o.accessRecords;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &out)
{
    Workload w;
    w.name = name;
    w.seed = seed;
    if (name == "sparse_1w") {
        w.workers = 1;
        w.space = "NLP.c1";
        w.subnets = kSparseSubnets;
        w.ckptInterval = kSparseCkpt;
    } else if (name == "dense_2w") {
        w.workers = 2;
        w.space = "NLP.c3";
        w.subnets = kDenseSubnets;
    } else if (name == "serve_20") {
        w.serve = true;
        w.workers = 2;
        // The mix (space, precision, length, which jobs crash) is
        // fixed by position so every seed carries the same load; the
        // seed picks the job seeds, priorities and crash points.
        Xoshiro256StarStar rng(deriveSeed(seed, "serve_20"));
        for (int i = 0; i < kServeJobs; i++) {
            serve::JobSpec spec;
            spec.space = kServeSpaces[i % 4];
            spec.seed = deriveSeed(seed, static_cast<std::uint64_t>(i));
            spec.steps = 2 * kServeCkpt + kServeCkpt / 2 * (i % 3);
            spec.priority = 1 + static_cast<int>(rng.next() % 3);
            spec.ckptInterval = kServeCkpt;
            spec.precision = (i + i / 4) % 2
                                 ? kernels::PrecisionMode::Fp16Rne
                                 : kernels::PrecisionMode::Fp32;
            if (i % 4 == (i / 4) % 4) {
                // Half an interval past a barrier (or the start), so
                // every crash replays the same 64 subnets' worth.
                auto slots = static_cast<std::uint64_t>(spec.steps /
                                                        kServeCkpt);
                FaultSpec crash;
                crash.kind = FaultKind::GpuCrash;
                int slot = static_cast<int>(rng.next() % slots);
                crash.atStep = kServeCkpt * slot + kServeCkpt / 2;
                crash.stage = static_cast<int>(rng.next() % 2);
                spec.faults.push_back(crash);
            }
            w.jobs.push_back(spec);
        }
    } else {
        return false;
    }
    if (!w.serve) {
        SearchSpace space = makeSpaceByName(w.space);
        w.batch = Engine::commonBatch(space, naspipeSystem(), {1, 2, 4, 8});
        NASPIPE_ASSERT(w.batch > 0, "no common batch for ", w.space);
    }
    out = std::move(w);
    return true;
}

RuntimeConfig
soloConfig(const Workload &w)
{
    RuntimeConfig config;
    config.system = naspipeSystem();
    config.numStages = w.workers;
    config.totalSubnets = w.subnets;
    config.batch = w.batch;
    config.seed = w.seed;
    config.numeric = true;
    config.ckptInterval = w.ckptInterval;
    return config;
}

RuntimeConfig
jobConfig(const serve::JobSpec &spec, int numStages)
{
    // Mirrors the service's own per-job configuration.
    RuntimeConfig config;
    config.system = naspipeSystem();
    config.numStages = numStages;
    config.totalSubnets = spec.steps;
    config.seed = spec.seed;
    config.numeric = true;
    config.ckptInterval = spec.ckptInterval;
    config.faults = spec.faults;
    config.recoveryMaxRetries = spec.recoveryRetries;
    config.precision = spec.precision;
    return config;
}

Rep
runRep(const Workload &w)
{
    double before = paceLoop();
    HostCpu host0 = readHostCpu();
    Rep rep = w.serve ? runServeRep(w) : runSoloRep(w);
    rep.stealShare = busyStealShare(host0, readHostCpu());
    rep.pace = 0.5 * (before + paceLoop());
    return rep;
}

} // namespace perfbench
