/**
 * @file
 * naspipe_bench — the repo's committed perf trajectory.
 *
 * Runs a pinned benchmark suite and writes one schema-versioned JSON
 * document (naspipe-bench/4) that is committed at the repo root as
 * BENCH_<pr>.json, so the perf trajectory of the codebase is
 * reviewable PR over PR:
 *
 *   - micro: fixed-iteration timings of the numeric plane (layer
 *     forward/backward, sequential subnet step, supernet hash,
 *     checkpoint serialization) — the same workloads as
 *     bench/micro_numeric, without the google-benchmark dependency
 *     so the harness runs everywhere the library builds;
 *   - scaling: the bench/parallel_scaling sweep (threaded executor
 *     at 1/2/4 workers vs the simulator) with the bitwise
 *     sim-vs-threads weight check that guards CSP equivalence;
 *   - logical: the deterministic logical-schedule analysis (makespan,
 *     gate-wait ticks) of the pinned workload — a *stable* perf
 *     model that must be byte-identical run over run;
 *   - recovery: a threaded run that loses a stage worker to an
 *     injected crash, recovers in place from the last drained
 *     checkpoint, and must land bitwise on the fault-free weights —
 *     the committed record of what a failure costs (replayed
 *     subnets, modeled downtime) and that it costs no correctness;
 *   - serve: the multi-tenant search service multiplexing mixed
 *     NLP.c1/CV.c1 jobs over one shared pool — aggregate throughput
 *     plus the per-job bitwise gate (every tenant's weights must
 *     equal its solo run exactly);
 *   - numeric: the kernel layer's record — sequential-vs-tree
 *     reduction timings at several lengths, and the per-precision
 *     golden gate: a pinned 32-step workload per (space, mode) on
 *     BOTH executors, whose weight hashes must agree with each
 *     other and with the committed goldens bit for bit.
 *
 * Wall-clock numbers vary machine to machine; the stable section and
 * every hash/match field must not. CI runs `--smoke` on every push.
 *
 * Usage:
 *   naspipe_bench [--out FILE] [--pr N] [--steps N] [--smoke]
 *                 [--quiet]
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "exec/parallel_runtime.h"
#include "obs/logical_schedule.h"
#include "obs/metrics_registry.h"
#include "obs/wall_clock.h"
#include "serve/service.h"
#include "supernet/sampler.h"
#include "tensor/kernels/precision.h"
#include "tensor/kernels/reduce.h"
#include "train/numeric_executor.h"

namespace {

using namespace naspipe;

constexpr const char *kSchema = "naspipe-bench/4";

struct Options {
    std::string outPath = "BENCH_10.json";
    int pr = 10;
    int steps = 64;
    bool smoke = false;
    bool quiet = false;
};

struct MicroResult {
    std::string name;
    std::uint64_t iterations = 0;
    double usPerIter = 0.0;
};

struct ScalingResult {
    int workers = 0;
    double simSeconds = 0.0;     ///< simulator wall time
    double threadSeconds = 0.0;  ///< threaded-executor wall time
    double subnetsPerSec = 0.0;  ///< threaded throughput
    std::uint64_t simHash = 0;
    std::uint64_t threadHash = 0;
    bool bitwiseMatch = false;
};

struct ServeJobResult {
    int id = 0;
    std::string space;
    std::uint64_t seed = 0;
    int steps = 0;
    std::uint64_t hash = 0;
    bool bitwiseMatch = false;  ///< shared-pool hash == solo hash
};

struct ServeResult {
    int stages = 0;
    double wallSeconds = 0.0;
    double subnetsPerSec = 0.0;  ///< aggregate across all tenants
    std::vector<ServeJobResult> jobs;
};

struct ReductionResult {
    std::size_t n = 0;
    double seqUs = 0.0;
    double treeUs = 0.0;
    double speedup = 0.0;  ///< seq / tree
};

struct GoldenResult {
    std::string space;
    std::string mode;  ///< "fp32" | "fp16_rne"
    int workers = 0;
    int steps = 0;
    std::uint64_t hash = 0;        ///< threaded-executor hash
    bool simThreadsMatch = false;  ///< sim == threads bitwise
    bool goldenMatch = false;      ///< == the committed golden
};

struct NumericResult {
    std::vector<ReductionResult> reductions;
    std::vector<GoldenResult> goldens;
};

struct RecoveryResult {
    int workers = 0;
    int ckptInterval = 0;
    int crashStep = 0;
    int recoveries = 0;
    int replayed = 0;              ///< subnets redone after rollback
    double recoverySeconds = 0.0;  ///< modeled detect+restart time
    double wallOverheadSeconds = 0.0;  ///< crash wall - clean wall
    bool bitwiseMatch = false;     ///< recovered == fault-free hash
};

double
microLoop(std::uint64_t iterations, const std::function<void()> &body)
{
    obs::WallTimer timer;
    for (std::uint64_t i = 0; i < iterations; i++)
        body();
    return timer.seconds() * 1e6 / static_cast<double>(iterations);
}

std::vector<MicroResult>
runMicro(const Options &opt)
{
    std::vector<MicroResult> out;
    auto bench = [&](const char *name, std::uint64_t iters,
                     const std::function<void()> &body) {
        MicroResult r;
        r.name = name;
        r.iterations = iters;
        r.usPerIter = microLoop(iters, body);
        out.push_back(r);
        if (!opt.quiet) {
            std::printf("micro  %-24s %10.3f us/iter (%llu iters)\n",
                        name, r.usPerIter,
                        static_cast<unsigned long long>(iters));
        }
    };
    const std::uint64_t scale = opt.smoke ? 1 : 8;

    {
        LayerParams params;
        initLayerParams(params, 3, 0, 0);
        Tensor in(kLayerDim), outT(kLayerDim);
        in.fill(0.25f);
        bench("layer_forward", 2000 * scale,
              [&] { layerForward(params, in, outT); });
        Tensor gradOut(kLayerDim), gradIn(kLayerDim);
        gradOut.fill(0.1f);
        LayerGrads grads;
        bench("layer_backward", 2000 * scale, [&] {
            grads.clear();
            layerBackward(params, in, gradOut, gradIn, grads);
        });
    }
    {
        SearchSpace space("bench", SpaceFamily::Nlp, 48, 72, 7, 0.37);
        ParameterStore store(space, 7);
        NumericExecutor::Config config;
        config.batch = 160;
        NumericExecutor exec(store, config);
        UniformSampler sampler(space, 13);
        bench("train_sequential_subnet", 4 * scale, [&] {
            Subnet sn = sampler.next();
            exec.trainSequential(sn);
        });
    }
    {
        SearchSpace space("bench", SpaceFamily::Nlp, 48, 24, 7, 0.37);
        ParameterStore store(space, 7);
        store.supernetHash();  // materialize all layers once
        bench("supernet_hash", 8 * scale,
              [&] { store.supernetHash(); });
        bench("checkpoint_save", 4 * scale, [&] {
            std::stringstream buffer;
            store.save(buffer);
        });
    }
    return out;
}

RuntimeConfig
workloadConfig(int workers, int steps)
{
    RuntimeConfig config;
    config.system = naspipeSystem();
    config.numStages = workers;
    config.totalSubnets = steps;
    config.seed = 7;
    return config;
}

/**
 * The kernel-layer record. Timings compare the pre-refactor
 * sequential loop against kernels::treeSum at several lengths; the
 * golden gate reruns the pinned 32-step acceptance workload per
 * (space, precision mode) on both executors and compares against the
 * committed hashes below. Goldens are pinned to 4 workers, 32 steps,
 * seed 7 — independent of --steps/--smoke, so the gate is identical
 * in every harness configuration.
 */
struct GoldenSpec {
    const char *space;
    kernels::PrecisionMode mode;
    std::uint64_t hash;
};
constexpr int kGoldenWorkers = 4;
constexpr int kGoldenSteps = 32;
constexpr GoldenSpec kGoldens[] = {
    {"NLP.c1", kernels::PrecisionMode::Fp32, 0x62a61404a040bcdaULL},
    {"CV.c1", kernels::PrecisionMode::Fp32, 0x11818c7988908918ULL},
    {"NLP.c1", kernels::PrecisionMode::Fp16Rne,
     0xcc5b8116dc75ad43ULL},
    {"CV.c1", kernels::PrecisionMode::Fp16Rne,
     0x7df4511c1a20f704ULL},
};

NumericResult
runNumeric(const Options &opt)
{
    NumericResult out;

    const std::uint64_t reps = opt.smoke ? 200 : 2000;
    for (std::size_t n : {1024u, 4096u, 16384u, 65536u}) {
        std::vector<float> a(n);
        for (std::size_t i = 0; i < n; i++)
            a[i] = 0.001f * static_cast<float>(i % 97) - 0.05f;
        ReductionResult r;
        r.n = n;
        volatile float sink = 0.0f;
        r.seqUs = microLoop(reps, [&] {
            float acc = 0.0f;
            for (std::size_t i = 0; i < n; i++)
                // naspipe-lint: allow(float-reduce-outside-kernels) the sequential baseline the tree is measured against
                acc += a[i];
            sink = acc;
        });
        r.treeUs = microLoop(
            reps, [&] { sink = kernels::treeSum(a.data(), n); });
        r.speedup = r.treeUs > 0.0 ? r.seqUs / r.treeUs : 0.0;
        out.reductions.push_back(r);
        if (!opt.quiet) {
            std::printf("numer  reduce n=%-6zu seq %8.3f us  tree "
                        "%8.3f us  speedup %.2fx\n",
                        n, r.seqUs, r.treeUs, r.speedup);
        }
    }

    for (const GoldenSpec &spec : kGoldens) {
        SearchSpace space = makeSpaceByName(spec.space);
        RuntimeConfig config =
            workloadConfig(kGoldenWorkers, kGoldenSteps);
        config.precision = spec.mode;
        RunResult sim = runTraining(space, config);
        RunResult thr = runTrainingThreaded(space, config);
        NASPIPE_ASSERT(!sim.oom && !sim.failed && !thr.oom &&
                           !thr.failed,
                       "bench numeric golden run failed (", spec.space,
                       ", ", kernels::precisionModeName(spec.mode),
                       ")");
        GoldenResult r;
        r.space = spec.space;
        r.mode = kernels::precisionModeName(spec.mode);
        r.workers = kGoldenWorkers;
        r.steps = kGoldenSteps;
        r.hash = thr.supernetHash;
        r.simThreadsMatch = sim.supernetHash == thr.supernetHash;
        r.goldenMatch = thr.supernetHash == spec.hash;
        out.goldens.push_back(r);
        if (!opt.quiet) {
            std::printf("numer  golden %s %-8s: sim==threads %s, "
                        "golden %s\n",
                        r.space.c_str(), r.mode.c_str(),
                        r.simThreadsMatch ? "ok" : "MISMATCH",
                        r.goldenMatch ? "ok" : "MISMATCH");
        }
    }
    return out;
}

std::vector<ScalingResult>
runScaling(const SearchSpace &space, const Options &opt)
{
    std::vector<ScalingResult> out;
    for (int workers : {1, 2, 4}) {
        RuntimeConfig config = workloadConfig(workers, opt.steps);

        obs::WallTimer simTimer;
        RunResult sim = runTraining(space, config);
        double simSec = simTimer.seconds();
        NASPIPE_ASSERT(!sim.oom && !sim.failed,
                       "bench sim run failed at ", workers,
                       " workers");

        RunResult thr = runTrainingThreaded(space, config);
        NASPIPE_ASSERT(!thr.oom && !thr.failed,
                       "bench threaded run failed at ", workers,
                       " workers");

        ScalingResult r;
        r.workers = workers;
        r.simSeconds = simSec;
        r.threadSeconds = thr.metrics.wallSeconds;
        r.subnetsPerSec =
            r.threadSeconds > 0.0
                ? static_cast<double>(opt.steps) / r.threadSeconds
                : 0.0;
        r.simHash = sim.supernetHash;
        r.threadHash = thr.supernetHash;
        r.bitwiseMatch = sim.supernetHash == thr.supernetHash;
        out.push_back(r);
        if (!opt.quiet) {
            std::printf("scale  %d workers: threads %.3fs "
                        "(%.1f subnets/s)  bitwise %s\n",
                        workers, r.threadSeconds, r.subnetsPerSec,
                        r.bitwiseMatch ? "ok" : "MISMATCH");
        }
    }
    return out;
}

/**
 * Crash a stage worker at 3/4 of the run on the threaded executor
 * and measure what the supervised recovery costs relative to the
 * fault-free `reference` run (same workload, same worker count).
 */
RecoveryResult
runRecovery(const SearchSpace &space, const Options &opt,
            const RunResult &reference)
{
    RecoveryResult r;
    r.workers = 4;
    r.ckptInterval = std::max(2, opt.steps / 4);
    r.crashStep = 3 * opt.steps / 4;

    RuntimeConfig config = workloadConfig(r.workers, opt.steps);
    config.ckptInterval = r.ckptInterval;
    FaultSpec crash;
    crash.kind = FaultKind::GpuCrash;
    crash.atStep = r.crashStep;
    crash.stage = 2;
    config.faults = {crash};

    RunResult run = runTrainingThreaded(space, config);
    NASPIPE_ASSERT(!run.oom && !run.failed,
                   "bench recovery run failed: ", run.error);
    r.recoveries = run.metrics.recoveries;
    r.replayed = run.metrics.subnetsReplayed;
    r.recoverySeconds = run.metrics.recoverySeconds;
    r.wallOverheadSeconds = std::max(
        0.0,
        run.metrics.wallSeconds - reference.metrics.wallSeconds);
    r.bitwiseMatch = run.supernetHash == reference.supernetHash;
    if (!opt.quiet) {
        std::printf("fault  crash@%d: %d recoveries, %d replayed, "
                    "%.2fs modeled downtime, bitwise %s\n",
                    r.crashStep, r.recoveries, r.replayed,
                    r.recoverySeconds,
                    r.bitwiseMatch ? "ok" : "MISMATCH");
    }
    return r;
}

/**
 * Multiplex three mixed-space searches over one shared pool and gate
 * every tenant's weights against its solo run — the committed record
 * of multi-tenant throughput and of the per-job bitwise guarantee.
 */
ServeResult
runServe(const Options &opt)
{
    ServeResult out;
    out.stages = 2;
    const int steps = std::max(4, opt.steps / 4);
    struct Tenant {
        const char *space;
        std::uint64_t seed;
    };
    const Tenant tenants[] = {
        {"NLP.c1", 11}, {"CV.c1", 3}, {"NLP.c1", 5}};

    serve::ServiceConfig sc;
    sc.numStages = out.stages;
    serve::SearchService service(sc);
    std::vector<int> ids;
    for (const Tenant &t : tenants) {
        serve::JobSpec spec;
        spec.space = t.space;
        spec.seed = t.seed;
        spec.steps = steps;
        std::string why;
        int id = service.submit(spec, &why);
        NASPIPE_ASSERT(id > 0, "bench serve submit failed: ", why);
        ids.push_back(id);
    }
    service.drain();
    obs::WallTimer timer;
    int outcome = service.run();
    out.wallSeconds = timer.seconds();
    NASPIPE_ASSERT(outcome == serve::SearchService::AllDone,
                   "bench serve run failed: ",
                   service.serviceError());
    out.subnetsPerSec =
        out.wallSeconds > 0.0
            ? static_cast<double>(steps) *
                  static_cast<double>(ids.size()) / out.wallSeconds
            : 0.0;

    for (std::size_t i = 0; i < ids.size(); i++) {
        const serve::ServeJob *job = service.job(ids[i]);
        NASPIPE_ASSERT(job, "bench serve job missing");
        SearchSpace space = makeSpaceByName(tenants[i].space);
        RuntimeConfig solo = workloadConfig(out.stages, steps);
        solo.seed = tenants[i].seed;
        RunResult ref = runTrainingThreaded(space, solo);
        NASPIPE_ASSERT(!ref.oom && !ref.failed,
                       "bench serve solo run failed");
        ServeJobResult r;
        r.id = ids[i];
        r.space = tenants[i].space;
        r.seed = tenants[i].seed;
        r.steps = steps;
        r.hash = job->supernetHash();
        r.bitwiseMatch = job->supernetHash() == ref.supernetHash;
        out.jobs.push_back(r);
        if (!opt.quiet) {
            std::printf("serve  job %d (%s seed %llu): bitwise %s\n",
                        r.id, r.space.c_str(),
                        static_cast<unsigned long long>(r.seed),
                        r.bitwiseMatch ? "ok" : "MISMATCH");
        }
    }
    if (!opt.quiet) {
        std::printf("serve  %zu jobs on %d stages: %.3fs "
                    "(%.1f subnets/s aggregate)\n",
                    out.jobs.size(), out.stages, out.wallSeconds,
                    out.subnetsPerSec);
    }
    return out;
}

std::string
renderJson(const Options &opt, const std::vector<MicroResult> &micro,
           const std::vector<ScalingResult> &scaling,
           const RecoveryResult &recovery, const ServeResult &serve,
           const NumericResult &numeric, const RunResult &reference,
           const obs::LogicalSchedule &logical)
{
    std::ostringstream oss;
    oss << "{\"schema\":\"" << kSchema << "\"";
    oss << ",\"pr\":" << opt.pr;
    oss << ",\"config\":{\"space\":\"NLP.c1\",\"seed\":7"
        << ",\"steps\":" << opt.steps
        << ",\"smoke\":" << (opt.smoke ? "true" : "false")
        // Committed numbers must come from witness-off builds; the
        // flag makes an accidental witness-on run visible in review.
        << ",\"lock_witness\":"
        << (lockWitnessEnabled() ? "true" : "false") << "}";

    oss << ",\"micro\":{";
    for (std::size_t i = 0; i < micro.size(); i++) {
        if (i)
            oss << ",";
        oss << "\"" << obs::jsonEscape(micro[i].name)
            << "\":{\"us_per_iter\":"
            << formatFixed(micro[i].usPerIter, 3)
            << ",\"iterations\":" << micro[i].iterations << "}";
    }
    oss << "}";

    oss << ",\"scaling\":[";
    for (std::size_t i = 0; i < scaling.size(); i++) {
        const ScalingResult &r = scaling[i];
        if (i)
            oss << ",";
        oss << "{\"workers\":" << r.workers
            << ",\"sim_s\":" << formatFixed(r.simSeconds, 4)
            << ",\"threads_s\":" << formatFixed(r.threadSeconds, 4)
            << ",\"subnets_per_s\":"
            << formatFixed(r.subnetsPerSec, 1)
            << ",\"bitwise_match\":"
            << (r.bitwiseMatch ? "true" : "false") << "}";
    }
    oss << "]";

    oss << ",\"recovery\":{\"workers\":" << recovery.workers
        << ",\"ckpt_interval\":" << recovery.ckptInterval
        << ",\"crash_step\":" << recovery.crashStep
        << ",\"recoveries\":" << recovery.recoveries
        << ",\"replayed\":" << recovery.replayed
        << ",\"recovery_s\":"
        << formatFixed(recovery.recoverySeconds, 3)
        << ",\"wall_overhead_s\":"
        << formatFixed(recovery.wallOverheadSeconds, 4)
        << ",\"bitwise_match\":"
        << (recovery.bitwiseMatch ? "true" : "false") << "}";

    oss << ",\"serve\":{\"stages\":" << serve.stages
        << ",\"jobs\":" << serve.jobs.size()
        << ",\"wall_s\":" << formatFixed(serve.wallSeconds, 4)
        << ",\"subnets_per_s\":"
        << formatFixed(serve.subnetsPerSec, 1) << ",\"per_job\":[";
    for (std::size_t i = 0; i < serve.jobs.size(); i++) {
        const ServeJobResult &r = serve.jobs[i];
        if (i)
            oss << ",";
        char jobHash[32];
        std::snprintf(jobHash, sizeof(jobHash), "%016llx",
                      static_cast<unsigned long long>(r.hash));
        oss << "{\"job\":" << r.id << ",\"space\":\""
            << obs::jsonEscape(r.space) << "\",\"seed\":" << r.seed
            << ",\"steps\":" << r.steps << ",\"hash\":\"" << jobHash
            << "\",\"bitwise_match\":"
            << (r.bitwiseMatch ? "true" : "false") << "}";
    }
    oss << "]}";

    oss << ",\"numeric\":{\"reductions\":[";
    for (std::size_t i = 0; i < numeric.reductions.size(); i++) {
        const ReductionResult &r = numeric.reductions[i];
        if (i)
            oss << ",";
        oss << "{\"n\":" << r.n
            << ",\"seq_us\":" << formatFixed(r.seqUs, 3)
            << ",\"tree_us\":" << formatFixed(r.treeUs, 3)
            << ",\"speedup\":" << formatFixed(r.speedup, 2) << "}";
    }
    oss << "],\"goldens\":[";
    for (std::size_t i = 0; i < numeric.goldens.size(); i++) {
        const GoldenResult &r = numeric.goldens[i];
        if (i)
            oss << ",";
        char goldenHash[32];
        std::snprintf(goldenHash, sizeof(goldenHash), "%016llx",
                      static_cast<unsigned long long>(r.hash));
        oss << "{\"space\":\"" << obs::jsonEscape(r.space)
            << "\",\"mode\":\"" << obs::jsonEscape(r.mode)
            << "\",\"workers\":" << r.workers
            << ",\"steps\":" << r.steps << ",\"hash\":\""
            << goldenHash << "\",\"sim_threads_match\":"
            << (r.simThreadsMatch ? "true" : "false")
            << ",\"golden_match\":"
            << (r.goldenMatch ? "true" : "false") << "}";
    }
    oss << "]}";

    // The stable section: pure functions of (seed, schedule). Two
    // harness runs on any machines must agree on every byte here.
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(
                      reference.supernetHash));
    oss << ",\"stable\":{\"supernet_hash\":\"" << hash << "\""
        << ",\"final_loss\":"
        << formatFixed(reference.metrics.finalLoss, 6)
        << ",\"gate_commits\":" << reference.metrics.gateCommits
        << ",\"logical_makespan_ticks\":" << logical.makespan
        << ",\"logical_gate_wait_ticks\":"
        << logical.totalGateWaitTicks
        << ",\"logical_span_count\":" << logical.spans.size()
        << "}}";
    return oss.str();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        auto intValue = [&](int lo) {
            const char *text = value();
            int n = 0;
            if (!parseWholeNumber(text, n) || n < lo)
                fatal("bad value '", text, "' for ", arg, " (want >= ",
                      lo, ")");
            return n;
        };
        if (arg == "--out")
            opt.outPath = value();
        else if (arg == "--pr")
            opt.pr = intValue(0);
        else if (arg == "--steps")
            opt.steps = intValue(1);
        else if (arg == "--smoke")
            opt.smoke = true;
        else if (arg == "--quiet")
            opt.quiet = true;
        else if (arg == "--help" || arg == "-h") {
            std::printf("usage: %s [--out FILE] [--pr N] [--steps N] "
                        "[--smoke] [--quiet]\n",
                        argv[0]);
            return 0;
        } else {
            fatal("unknown argument: ", arg);
        }
    }
    if (opt.smoke)
        opt.steps = std::min(opt.steps, 16);
    NASPIPE_ASSERT(opt.steps >= 1, "need >= 1 step");

    std::vector<MicroResult> micro = runMicro(opt);

    SearchSpace space = makeSpaceByName("NLP.c1");
    std::vector<ScalingResult> scaling = runScaling(space, opt);

    // Reference run for the stable section: 4 workers, the same
    // pinned workload the acceptance tests use.
    RuntimeConfig refConfig = workloadConfig(4, opt.steps);
    RunResult reference = runTrainingThreaded(space, refConfig);
    NASPIPE_ASSERT(!reference.oom && !reference.failed,
                   "bench reference run failed");
    obs::LogicalSchedule logical = obs::buildLogicalSchedule(
        space, reference.sampled, reference.partitions, 4,
        reference.metrics.batch,
        refConfig.system.effectiveInflight(4));

    RecoveryResult recovery = runRecovery(space, opt, reference);
    ServeResult serve = runServe(opt);
    NumericResult numeric = runNumeric(opt);

    std::string json = renderJson(opt, micro, scaling, recovery,
                                  serve, numeric, reference, logical);
    std::ofstream out(opt.outPath);
    out << json << "\n";
    if (!out)
        fatal("cannot write ", opt.outPath);
    if (!opt.quiet)
        std::printf("wrote  %s (%s)\n", opt.outPath.c_str(), kSchema);

    for (const ScalingResult &r : scaling) {
        if (!r.bitwiseMatch) {
            std::fprintf(stderr,
                         "error: sim/threads weight hash mismatch at "
                         "%d workers\n",
                         r.workers);
            return 1;
        }
    }
    if (!recovery.bitwiseMatch) {
        std::fprintf(stderr,
                     "error: crash-recovered weights diverge from "
                     "the fault-free run\n");
        return 1;
    }
    for (const ServeJobResult &r : serve.jobs) {
        if (!r.bitwiseMatch) {
            std::fprintf(stderr,
                         "error: serve job %d (%s) diverges from its "
                         "solo run on the shared pool\n",
                         r.id, r.space.c_str());
            return 1;
        }
    }
    for (const GoldenResult &r : numeric.goldens) {
        if (!r.simThreadsMatch || !r.goldenMatch) {
            std::fprintf(stderr,
                         "error: numeric golden gate failed for %s "
                         "in %s mode\n",
                         r.space.c_str(), r.mode.c_str());
            return 1;
        }
    }
    return 0;
}
