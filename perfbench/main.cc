/**
 * @file
 * naspipe_perfbench: end-to-end and per-layer benchmark of the CSP
 * training stack.
 *
 *   naspipe_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                     [--out-dir DIR]
 *
 * --trace 0 measures the end-to-end metrics: one warm-up repetition,
 * then closed-loop repetitions for S seconds, each reported as a
 * median. --trace 1 runs the same repetitions for the executor's own
 * counters, then a sequential replay of the same subnet stream twice,
 * untraced and traced, and reports the per-layer ledger. Both modes
 * check every repetition against the untimed sequential replay and
 * run a negative self-test of that check. The last stdout line is
 * the JSON result; a line starting with "noise" before it records
 * host steal time and the core count.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "exec/parallel_runtime.h"
#include "tensor/layer_math.h"
#include "tensor/sgd.h"
#include "tensor/tensor.h"

#include "probe.h"
#include "replay.h"
#include "workloads.h"

using namespace naspipe;
using namespace perfbench;

namespace {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".";
};

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; i++) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            return false;
        std::string value = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            opt.workload = value;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
        } else if (key == "--trace") {
            opt.trace = value == "1";
            if (value != "0" && value != "1")
                return false;
        } else if (key == "--out-dir") {
            opt.outDir = value;
        } else {
            return false;
        }
        if (end && *end)
            return false;
    }
    return !opt.workload.empty() && opt.seconds > 0.0;
}

/** Metric name -> (value, unit), printed in insertion order. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        _items.emplace_back(name, std::make_pair(value, unit));
    }

    std::string
    json() const
    {
        std::ostringstream out;
        out << "{";
        char buf[64];
        for (std::size_t i = 0; i < _items.size(); i++) {
            double v = _items[i].second.first;
            std::snprintf(buf, sizeof(buf), "%.17g",
                          std::isfinite(v) ? v : 0.0);
            out << (i ? ", " : "") << "\"" << _items[i].first
                << "\": {\"value\": " << buf << ", \"unit\": \""
                << _items[i].second.second << "\"}";
        }
        out << "}";
        return out.str();
    }

  private:
    std::vector<std::pair<std::string, std::pair<double, const char *>>>
        _items;
};

/** Tally of checked units and of failed checks. */
struct Verdict {
    int attempted = 0;
    int failed = 0;
    bool correct = true;

    void
    unit(bool ok)
    {
        attempted++;
        failed += ok ? 0 : 1;
        correct = correct && ok;
    }

    void
    require(bool ok, const char *what)
    {
        if (!ok) {
            std::fprintf(stderr, "perfbench: check failed: %s\n", what);
            correct = false;
        }
    }
};

/** Median of @p field over the timed repetitions. */
template <typename Field>
double
medianOf(const std::vector<Rep> &reps, Field field)
{
    std::vector<double> v;
    for (const Rep &rep : reps)
        v.push_back(field(rep));
    return median(v);
}

/** Untimed references: one sequential replay per checked unit. */
std::vector<ReplayOutcome>
referenceReplays(const Workload &w, Tracer *tracer)
{
    std::vector<ReplayOutcome> out;
    if (!w.serve) {
        SearchSpace space = makeSpaceByName(w.space);
        out.push_back(replaySequential(space, soloConfig(w), tracer));
        return out;
    }
    for (const serve::JobSpec &spec : w.jobs) {
        SearchSpace space = makeSpaceByName(spec.space);
        out.push_back(
            replaySequential(space, jobConfig(spec, w.workers), tracer));
    }
    return out;
}

/**
 * Whether unit @p u of a repetition is correct: expected exit state,
 * no causal violation, and weights bitwise-equal to @p ref.
 */
bool
unitOk(const Unit &u, const ReplayOutcome &ref, int expectRecoveries)
{
    return u.done && u.violations == 0 && ref.violations == 0 &&
           u.hash == ref.hash && u.finalLoss == ref.finalLoss &&
           u.recoveries == expectRecoveries;
}

/**
 * Negative self-test of the check: a short run of the workload's
 * first configuration must match its replay, and a replay of the
 * same stream with two adjacent subnets swapped must be caught.
 */
bool
negativeSelfTest(const Workload &w)
{
    const int kSubnets = 256;
    std::string spaceName = w.serve ? w.jobs.front().space : w.space;
    RuntimeConfig config = w.serve
                               ? jobConfig(w.jobs.front(), w.workers)
                               : soloConfig(w);
    config.totalSubnets = kSubnets;
    config.faults.clear();
    SearchSpace space = makeSpaceByName(spaceName);
    RunResult run = runTrainingThreaded(space, config);
    Stream stream;
    for (const Subnet &sn : run.sampled)
        stream.push_back(sn.choices());
    if (run.failed || stream.size() != kSubnets)
        return false;
    Unit unit;
    unit.done = true;
    unit.hash = run.supernetHash;
    unit.violations = run.metrics.causalViolations;
    unit.finalLoss = trailingLoss(run.losses);
    ReplayOutcome same =
        replaySequential(space, withStream(config, stream), nullptr);
    std::swap(stream[10], stream[11]);
    ReplayOutcome perturbed =
        replaySequential(space, withStream(config, stream), nullptr);
    bool caught = !unitOk(unit, perturbed, 0);
    bool accepted = unitOk(unit, same, 0);
    if (!caught || !accepted) {
        std::fprintf(stderr,
                     "perfbench: self-test: clean stream %s, perturbed "
                     "stream %s\n",
                     accepted ? "accepted" : "REJECTED",
                     caught ? "caught" : "NOT CAUGHT");
    }
    return caught && accepted;
}

/** Median per-call time of @p body in nanoseconds. */
template <typename Body>
double
nsPerCall(Body &&body)
{
    const int kCalls = 20000;
    std::vector<double> batches;
    for (int b = 0; b < 7; b++) {
        double start = wallNow();
        for (int i = 0; i < kCalls; i++)
            body();
        batches.push_back((wallNow() - start) * 1e9 / kCalls);
    }
    return median(batches);
}

/** Kernel timings at the layer size the training engine uses. */
void
tensorMicro(Metrics &m)
{
    LayerParams params;
    initLayerParams(params, 3, 0, 0);
    Tensor in(kLayerDim), out(kLayerDim);
    in.fill(0.25f);
    m.add("tensor.layer_fwd_ns",
          nsPerCall([&] { layerForward(params, in, out); }), "ns");
    Tensor gradOut(kLayerDim), gradIn(kLayerDim);
    gradOut.fill(0.1f);
    LayerGrads grads;
    m.add("tensor.layer_bwd_ns", nsPerCall([&] {
              grads.clear();
              layerBackward(params, in, gradOut, gradIn, grads);
          }),
          "ns");
    SgdOptimizer sgd;
    grads.weight.fill(1e-6f);
    grads.bias.fill(1e-6f);
    m.add("tensor.sgd_step_ns", nsPerCall([&] { sgd.step(params, grads); }),
          "ns");
}

/**
 * Untimed checks: every unit of every repetition (warm-up included)
 * against its sequential replay, and exact repeats of every logical
 * count across repetitions of the same seed.
 */
void
checkReps(const Workload &w, const Rep &warmup, const std::vector<Rep> &reps,
          const std::vector<ReplayOutcome> &refs, Verdict &verdict)
{
    auto check = [&](const Rep &rep) {
        verdict.require(rep.units.size() == refs.size(),
                        "unit count matches the workload");
        for (std::size_t j = 0; j < rep.units.size(); j++) {
            int expect = w.serve && !w.jobs[j].faults.empty() ? 1 : 0;
            verdict.unit(rep.outcomeOk &&
                         unitOk(rep.units[j], refs[j], expect));
        }
    };
    check(warmup);
    for (const Rep &rep : reps) {
        check(rep);
        bool same = rep.units.size() == warmup.units.size();
        for (std::size_t j = 0; same && j < rep.units.size(); j++)
            same = rep.units[j].sameCounts(warmup.units[j]);
        verdict.require(same, "counts repeat exactly across repetitions");
    }
    if (!w.serve) {
        verdict.require(warmup.units[0].ckptBytes == refs[0].lastCkptBytes,
                        "threaded and replayed checkpoints agree");
    }
    verdict.require(negativeSelfTest(w), "negative self-test");
}

/**
 * The end-to-end metrics of the timed repetitions. Every timing is
 * scaled to a quiet host (Rep::wallScale(), Rep::paceScale());
 * printNoise() reports the unscaled medians.
 */
void
endToEnd(const std::vector<Rep> &reps, const Rep &warmup,
         const std::vector<ReplayOutcome> &refs, double rssMb,
         const Verdict &verdict, Metrics &m)
{
    std::vector<double> done;
    for (const Rep &rep : reps)
        for (double s : rep.jobDoneS)
            done.push_back(s * rep.wallScale());
    std::uint64_t ckptBytes = 0;
    double lossSum = 0.0;
    for (const Unit &u : warmup.units) {
        ckptBytes += u.ckptBytes;
        lossSum += u.finalLoss;
    }
    if (ckptBytes == 0)
        ckptBytes = refs[0].endCkptBytes;  // the run takes no checkpoint

    m.add("subnets_per_s", medianOf(reps, [](const Rep &r) {
              return r.subnets / (r.trainWallS * r.wallScale());
          }),
          "1/s");
    m.add("cpu_s_per_subnet", medianOf(reps, [](const Rep &r) {
              return r.trainCpuS * r.paceScale() / r.subnets;
          }),
          "s");
    m.add("result_s", medianOf(reps, [](const Rep &r) {
              return r.resultS * r.wallScale();
          }),
          "s");
    m.add("job_done_s_p50", median(done), "s");
    m.add("setup_s", medianOf(reps, [](const Rep &r) {
              return r.setupS * r.paceScale();
          }),
          "s");
    m.add("peak_rss_mb", rssMb, "MB");
    m.add("ckpt_bytes", static_cast<double>(ckptBytes), "bytes");
    m.add("final_loss", lossSum / static_cast<double>(warmup.units.size()),
          "mse");
    m.add("ok_share",
          1.0 - static_cast<double>(verdict.failed) / verdict.attempted,
          "ratio");
}

/**
 * Host diagnostics of the timed window, not gated metrics: steal
 * share (of all CPU time over the window, and the median per
 * repetition of the time the CPUs wanted to run), cores, the median
 * pace, and the unscaled medians of the timings endToEnd() reports
 * scaled.
 */
void
printNoise(double steal, int cores, double timed, const std::vector<Rep> &reps)
{
    std::vector<double> done;
    for (const Rep &rep : reps)
        done.insert(done.end(), rep.jobDoneS.begin(), rep.jobDoneS.end());
    std::printf(
        "noise {\"steal_share\": %.6f, \"rep_steal_share\": %.4f, "
        "\"nproc\": %d, \"timed_s\": %.3f, \"reps\": %zu, "
        "\"pace_ms\": %.4f, "
        "\"unscaled\": {\"subnets_per_s\": %.1f, "
        "\"cpu_s_per_subnet\": %.4g, \"result_s\": %.4f, "
        "\"job_done_s_p50\": %.4f, \"setup_s\": %.5f}}\n",
        steal, medianOf(reps, [](const Rep &r) { return r.stealShare; }),
        cores, timed, reps.size(),
        medianOf(reps, [](const Rep &r) { return r.pace; }) * 1e3,
        medianOf(reps, [](const Rep &r) { return r.subnets / r.trainWallS; }),
        medianOf(reps, [](const Rep &r) { return r.trainCpuS / r.subnets; }),
        medianOf(reps, [](const Rep &r) { return r.resultS; }),
        median(done),
        medianOf(reps, [](const Rep &r) { return r.setupS; }));
}

/**
 * The per-layer ledger: a traced sequential replay of the same
 * stream for the session / train / exec-gate layers, the threaded
 * repetitions' own counters for the exec and memory layers, and the
 * serve and fault counts of the repetitions.
 */
void
ledger(const Workload &w, const Options &opt, const std::vector<Rep> &reps,
       const Rep &warmup, const std::vector<ReplayOutcome> &refs,
       Verdict &verdict, Metrics &m)
{
    std::size_t subnets = 0;
    for (const ReplayOutcome &r : refs)
        subnets += static_cast<std::size_t>(r.subnets);
    Tracer tracer(subnets * static_cast<std::size_t>(4 + 3 * w.workers) +
                  64 * refs.size());
    std::vector<ReplayOutcome> traced = referenceReplays(w, &tracer);
    std::map<std::string, Tracer::Total> t = tracer.totals();
    tracer.writeChromeTrace(opt.outDir + "/spans_" + w.name + ".json");

    // Tracing overhead: the lesser of two traced replay walls minus
    // the lesser of two untraced ones, on the same stream.
    auto wallOf = [](const std::vector<ReplayOutcome> &runs) {
        double s = 0.0;
        for (const ReplayOutcome &r : runs)
            s += r.wall;
        return s;
    };
    Tracer spare(tracer.capacity());
    double tracedWall =
        std::min(wallOf(traced), wallOf(referenceReplays(w, &spare)));
    double untracedWall =
        std::min(wallOf(refs), wallOf(referenceReplays(w, nullptr)));

    ReplayOutcome sum;
    for (std::size_t j = 0; j < traced.size(); j++) {
        verdict.require(traced[j].hash == refs[j].hash &&
                            traced[j].hash == warmup.units[j].hash,
                        "traced replay lands on the run's weights");
        sum.ckptCount += traced[j].ckptCount;
        sum.accessRecords += traced[j].accessRecords;
        sum.storeSaveBytes += traced[j].storeSaveBytes;
        sum.logSaveBytes += traced[j].logSaveBytes;
        sum.gateOps += traced[j].gateOps;
    }
    double coverage = 1.0 - t["replay"].selfSec / t["replay"].totalSec;
    verdict.require(coverage >= 0.9,
                    "layer self times cover the replay wall");

    double n = static_cast<double>(subnets);
    auto perSubnetUs = [&](const char *name) {
        return t[name].totalSec / n * 1e6;
    };
    double computeSec = t["train.forward"].totalSec +
                        t["train.loss"].totalSec +
                        t["train.backward"].totalSec;
    double gateSec = t["exec.gate_register"].totalSec +
                     t["exec.gate_read"].totalSec +
                     t["exec.gate_commit"].totalSec;
    auto med = [&](auto field) { return medianOf(reps, field); };
    // Stage-worker accounting is in RunMetrics for solo runs; the
    // serve pool does not publish it, so there the pool threads' CPU
    // time stands in for busy time and the wait/idle split is absent.
    double busy = med([&](const Rep &r) {
        if (w.serve)
            return r.workerCpuS / r.subnets;
        double s = 0.0;
        for (double b : r.metrics.perStageBusySec)
            s += b;
        return s / r.subnets;
    });
    auto workerShare = [&](const std::vector<double> RunMetrics::*field) {
        if (w.serve)
            return 0.0;
        return med([&](const Rep &r) {
            double s = 0.0;
            for (double v : r.metrics.*field)
                s += v;
            return s / (r.metrics.wallSeconds * w.workers);
        });
    };
    double deferrals = w.serve ? 0.0 : med([](const Rep &r) {
        double s = 0.0;
        for (std::uint64_t d : r.metrics.perStageDeferrals)
            s += static_cast<double>(d);
        return s / r.subnets;
    });
    double hitRate = w.serve ? 0.0 : med([](const Rep &r) {
        return r.metrics.cacheHitRate.value_or(0.0);
    });
    int recoveries = 0, replayed = 0;
    for (const Unit &u : warmup.units) {
        recoveries += u.recoveries;
        replayed += u.replayed;
    }

    m.add("session.init_s", t["session.init"].totalSec, "s");
    m.add("session.pump_us", t["session.pump"].selfSec / n * 1e6, "us");
    m.add("session.record_us", perSubnetUs("session.record"), "us");
    m.add("session.ckpt_ms",
          sum.ckptCount ? t["session.ckpt"].totalSec / sum.ckptCount * 1e3
                        : 0.0,
          "ms");
    m.add("session.ckpt_count", sum.ckptCount, "count");
    m.add("session.collect_s", t["session.collect"].totalSec, "s");
    m.add("train.forward_us", perSubnetUs("train.forward"), "us");
    m.add("train.backward_us", perSubnetUs("train.backward"), "us");
    m.add("train.loss_us", perSubnetUs("train.loss"), "us");
    m.add("train.finish_us", perSubnetUs("train.finish"), "us");
    m.add("train.access_records", static_cast<double>(sum.accessRecords),
          "count");
    m.add("train.store_save_bytes", static_cast<double>(sum.storeSaveBytes),
          "bytes");
    m.add("train.log_save_bytes", static_cast<double>(sum.logSaveBytes),
          "bytes");
    m.add("exec.busy_s_per_subnet", busy, "s");
    m.add("exec.busy_inflation", busy / (computeSec / n), "ratio");
    m.add("exec.gate_wait_share",
          workerShare(&RunMetrics::perStageGateWaitSec), "ratio");
    m.add("exec.idle_share", workerShare(&RunMetrics::perStageIdleSec),
          "ratio");
    m.add("exec.deferrals_per_subnet", deferrals, "count");
    m.add("exec.gate_ops", static_cast<double>(sum.gateOps), "count");
    m.add("exec.gate_us_per_op",
          sum.gateOps ? gateSec / static_cast<double>(sum.gateOps) * 1e6
                      : 0.0,
          "us");
    m.add("memory.cache_hit_rate", hitRate, "ratio");
    m.add("serve.submit_ms",
          w.serve ? med([](const Rep &r) { return r.submitMs; }) : 0.0,
          "ms");
    m.add("fault.recoveries", recoveries, "count");
    m.add("fault.replayed_subnets", replayed, "count");
    m.add("trace.replay_wall_s", tracedWall, "s");
    m.add("trace.overhead_s", tracedWall - untracedWall, "s");
    m.add("trace.coverage", coverage, "ratio");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: naspipe_perfbench --workload "
                     "sparse_1w|dense_2w|serve_20 --seed N --seconds S "
                     "--trace 0|1 [--out-dir DIR]\n");
        return 2;
    }
    Workload w;
    if (!makeWorkload(opt.workload, opt.seed, w)) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    // Stage workers + coordinator + watchdog must each have a core,
    // or the figures measure oversubscription instead of the stack.
    int cores = usableCores();
    if (w.workers + 2 > cores) {
        std::fprintf(stderr,
                     "perfbench: %s needs %d cores (%d workers + "
                     "coordinator + watchdog), only %d usable\n",
                     w.name.c_str(), w.workers + 2, w.workers, cores);
        return 3;
    }
    LogConfig::instance().threshold(LogLevel::Warn);

    // One untimed warm-up repetition: lazy set-up and first touch of
    // the heap land there, not in the timed window.
    Rep warmup = runRep(w);
    std::vector<Rep> reps;
    HostCpu host0 = readHostCpu();
    double begin = wallNow();
    while (reps.empty() || wallNow() - begin < opt.seconds)
        reps.push_back(runRep(w));
    double timed = wallNow() - begin;
    double steal = stealShare(host0, readHostCpu());
    double rssMb = peakRssMb();

    Verdict verdict;
    std::vector<ReplayOutcome> refs = referenceReplays(w, nullptr);
    checkReps(w, warmup, reps, refs, verdict);
    Metrics m;
    if (opt.trace) {
        ledger(w, opt, reps, warmup, refs, verdict, m);
        tensorMicro(m);
    } else {
        endToEnd(reps, warmup, refs, rssMb, verdict, m);
    }
    printNoise(steal, cores, timed, reps);
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": %s}\n",
                verdict.correct ? "true" : "false", verdict.attempted,
                verdict.failed, m.json().c_str());
    return verdict.correct ? 0 : 1;
}
