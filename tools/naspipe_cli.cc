/**
 * @file
 * naspipe_cli — run one supernet-training simulation from the
 * command line.
 *
 * Usage:
 *   naspipe_cli [--space NAME] [--system NAME] [--gpus N]
 *               [--steps N] [--seed N] [--batch N] [--staleness N]
 *               [--evolution] [--hybrid N] [--executor sim|threads]
 *               [--verify-csp] [--inject-fault SPEC]
 *               [--ckpt-interval N] [--ckpt FILE.ckpt]
 *               [--resume FILE.ckpt] [--trace FILE.json]
 *               [--trace-out FILE.json] [--metrics-out FILE.json]
 *               [--obs-wall] [--checkpoint FILE.ckpt]
 *               [--csv FILE.csv] [--quiet]
 *
 * --executor threads runs the training on real OS threads (one per
 * stage) through the CommitGate; weights are bitwise identical to
 * --executor sim (the default discrete-event simulation).
 *
 * --trace-out writes a Perfetto-loadable span trace and
 * --metrics-out the unified metrics registry (src/obs/). Both
 * default to *logical* mode: every structural field is a pure
 * function of (seed, schedule), so identical-seed runs emit
 * byte-identical files with either executor. --obs-wall switches
 * both to real wall-clock spans and Timing metrics instead
 * (threaded runs only record wall spans; unreproducible by nature).
 *
 * --verify-csp runs the CspOracle over the run: the run keeps its
 * full access history (off otherwise), which is audited post-run
 * (both executors), and the oracle additionally observes every
 * CommitGate commit live (the simulator's gate commits under CSP).
 * Violations print a report naming layer, stage and the offending
 * sequence IDs, and the process exits 4. Such a run resumes only from a checkpoint
 * that kept the history too.
 *
 * --inject-fault works with both executors: the simulator transitions
 * its hardware models; on threads a crash or drop is a logical
 * fail-stop of the run (it drops its in-flight stragglers, rolls back
 * to the last drained checkpoint and replays in CSP order to
 * bitwise-identical weights) and a stall or degrade latches into the
 * victim stage worker. Recovery retries are bounded
 * (--recovery-retries, default 3 consecutive) with modeled
 * exponential backoff; exhaustion exits 5. A real worker incident (a
 * worker whose task threw, or with --obs-wall no completion for 30 s
 * while work is in flight) fails a threaded run with exit 3.
 *
 * Exit codes: 0 ok, 2 bad arguments or OOM, 3 run failure (bad
 * resume file, worker incident etc.), 4 CSP invariant violated,
 * 5 recovery retries exhausted.
 *
 * Spaces: NLP.c0..c3, CV.c1..c3 (Table 1).
 * Systems: naspipe, gpipe, pipedream, vpipe, naspipe-no-scheduler,
 *          naspipe-no-predictor, naspipe-no-mirroring, ssp
 *          (ssp uses --staleness, default 2).
 * Fault specs: KIND@STEP[,stage=N][,ms=X][,factor=F] with KIND one
 * of crash|stall|degrade|drop; --inject-fault repeats.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/table.h"
#include "core/engine.h"
#include "exec/parallel_runtime.h"
#include "obs/logical_schedule.h"
#include "obs/metrics_export.h"
#include "obs/trace_export.h"
#include "fault/fault_plan.h"
#include "schedule/ssp_scheduler.h"
#include "tensor/kernels/precision.h"
#include "verify/csp_oracle.h"

namespace {

using namespace naspipe;

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--space NAME] [--system NAME] [--gpus N]\n"
        "          [--steps N] [--seed N] [--batch N] "
        "[--staleness N]\n"
        "          [--evolution] [--hybrid N] "
        "[--executor sim|threads]\n"
        "          [--precision fp32|fp16]\n"
        "          [--verify-csp] [--inject-fault SPEC] "
        "[--ckpt-interval N]\n"
        "          [--recovery-retries N] "
        "[--ckpt FILE.ckpt] [--resume FILE.ckpt]\n"
        "          [--trace FILE.json] [--trace-out FILE.json]\n"
        "          [--metrics-out FILE.json] [--obs-wall]\n"
        "          [--checkpoint FILE.ckpt]\n"
        "          [--csv FILE.csv] [--quiet]\n"
        "spaces:  NLP.c0 NLP.c1 NLP.c2 NLP.c3 CV.c1 CV.c2 CV.c3\n"
        "systems: naspipe gpipe pipedream vpipe ssp\n"
        "         naspipe-no-scheduler naspipe-no-predictor\n"
        "         naspipe-no-mirroring\n"
        "faults:  KIND@STEP[,stage=N][,ms=X][,factor=F]\n"
        "         KIND: crash|stall|degrade|drop; repeatable\n"
        "exit:    0 ok, 2 bad args/OOM, 3 run failure,\n"
        "         4 CSP violation, 5 recovery retries exhausted\n",
        argv0);
}

/** Report a bad argument, print usage, and exit nonzero. */
[[noreturn]] void
argError(const char *argv0, const std::string &message)
{
    std::fprintf(stderr, "error: %s\n", message.c_str());
    usage(argv0);
    std::exit(2);
}

SystemModel
systemByName(const std::string &name, int staleness)
{
    if (name == "naspipe")
        return naspipeSystem();
    if (name == "gpipe")
        return gpipeSystem();
    if (name == "pipedream")
        return pipedreamSystem();
    if (name == "vpipe")
        return vpipeSystem();
    if (name == "ssp")
        return sspSystem(staleness);
    if (name == "naspipe-no-scheduler")
        return naspipeWithoutScheduler();
    if (name == "naspipe-no-predictor")
        return naspipeWithoutPredictor();
    if (name == "naspipe-no-mirroring")
        return naspipeWithoutMirroring();
    fatal("unknown system: ", name);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace naspipe;

    std::string spaceName = "NLP.c2";
    std::string systemName = "naspipe";
    std::string executorName = "sim";
    kernels::PrecisionMode precision = kernels::PrecisionMode::Fp32;
    std::string tracePath, checkpointPath, csvPath;
    std::string ckptPath, resumePath;
    std::string traceOutPath, metricsOutPath;
    std::vector<FaultSpec> faults;
    int gpus = 8, steps = 64, batch = 0, staleness = 2;
    int hybrid = 0, ckptInterval = 0, recoveryRetries = 3;
    std::uint64_t seed = 7;
    bool evolution = false, quiet = false, verifyCsp = false;
    bool obsWall = false;

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                argError(argv[0], "missing value for " + arg);
            return argv[++i];
        };
        auto intValue = [&](int lo, int hi) -> int {
            const char *text = value();
            int n = 0;
            if (!parseWholeNumber(text, n) || n < lo || n > hi) {
                argError(argv[0], "bad value '" + std::string(text) +
                                      "' for " + arg + " (want " +
                                      std::to_string(lo) + ".." +
                                      std::to_string(hi) + ")");
            }
            return n;
        };
        if (arg == "--space")
            spaceName = value();
        else if (arg == "--system")
            systemName = value();
        else if (arg == "--gpus")
            gpus = intValue(1, 1024);
        else if (arg == "--steps")
            steps = intValue(1, 1000000);
        else if (arg == "--seed") {
            const char *text = value();
            if (!parseWholeNumber(text, seed)) {
                argError(argv[0], "bad value '" + std::string(text) +
                                      "' for --seed");
            }
        } else if (arg == "--batch")
            batch = intValue(0, 1 << 20);
        else if (arg == "--staleness")
            staleness = intValue(0, 1 << 20);
        else if (arg == "--hybrid")
            hybrid = intValue(0, 1 << 20);
        else if (arg == "--executor") {
            executorName = value();
            if (executorName != "sim" && executorName != "threads") {
                argError(argv[0], "bad value '" + executorName +
                                      "' for --executor "
                                      "(want sim or threads)");
            }
        }
        else if (arg == "--precision") {
            const std::string text = value();
            if (!kernels::parsePrecisionMode(text, precision)) {
                argError(argv[0], "bad value '" + text +
                                      "' for --precision "
                                      "(want fp32 or fp16)");
            }
        }
        else if (arg == "--ckpt-interval")
            ckptInterval = intValue(0, 1000000);
        else if (arg == "--recovery-retries")
            recoveryRetries = intValue(0, 1000);
        else if (arg == "--inject-fault") {
            FaultSpec spec;
            std::string why;
            if (!parseFaultSpec(value(), spec, &why))
                argError(argv[0], why);
            faults.push_back(spec);
        } else if (arg == "--ckpt")
            ckptPath = value();
        else if (arg == "--resume")
            resumePath = value();
        else if (arg == "--trace")
            tracePath = value();
        else if (arg == "--trace-out")
            traceOutPath = value();
        else if (arg == "--metrics-out")
            metricsOutPath = value();
        else if (arg == "--obs-wall")
            obsWall = true;
        else if (arg == "--checkpoint")
            checkpointPath = value();
        else if (arg == "--csv")
            csvPath = value();
        else if (arg == "--evolution")
            evolution = true;
        else if (arg == "--verify-csp")
            verifyCsp = true;
        else if (arg == "--quiet")
            quiet = true;
        else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            argError(argv[0], "unknown argument: " + arg);
        }
    }
    if (!faults.empty() &&
        std::any_of(faults.begin(), faults.end(), [](const FaultSpec &f) {
            return faultIsFailStop(f.kind);
        }) &&
        ckptInterval == 0 && !quiet) {
        std::printf("note: fail-stop fault without --ckpt-interval: "
                    "recovery restarts from subnet 0\n");
    }

    SearchSpace space = makeSpaceByName(spaceName);
    SystemModel system = systemByName(systemName, staleness);

    RuntimeConfig config;
    config.system = system;
    config.numStages = gpus;
    config.totalSubnets = steps;
    config.seed = seed;
    config.batch = batch;
    config.precision = precision;
    config.evolutionSearch = evolution;
    config.hybridStreams = hybrid;
    // Wall-mode trace export needs live span recording; logical-mode
    // export rebuilds the timeline from the schedule instead, so the
    // run itself stays untouched by observability.
    config.traceEnabled =
        !tracePath.empty() || (obsWall && !traceOutPath.empty());
    config.faults = faults;
    config.ckptInterval = ckptInterval;
    config.ckptPath = ckptPath;
    config.resumePath = resumePath;
    config.recoveryMaxRetries = recoveryRetries;
    // Crash detection stays state-based (deterministic); the wall
    // hang deadline follows the wall-observability opt-in.
    config.wallWatchdog = obsWall;
    // The post-run audit replays every layer's full access history,
    // which only a run that keeps it has.
    config.accessHistory = verifyCsp;

    bool threaded = executorName == "threads";
    if (threaded) {
        std::string why;
        if (!ParallelRuntime::supported(config, &why))
            argError(argv[0], "--executor threads: " + why);
    }
    CspOracle oracle;
    if (verifyCsp) {
        // Live half of the audit: watch every CommitGate commit for
        // causal-chain monotonicity as it happens.
        config.commitObserver = [&oracle](std::uint64_t layerKey,
                                          SubnetId subnet,
                                          std::size_t rank, int stg) {
            oracle.observeCommit(layerKey, subnet, rank, stg);
        };
        // Recovery recreates the commit gate, so every causal chain
        // legitimately restarts at rank 0 — drop the live cursors at
        // each recovery epoch (the post-run audit still covers the
        // full replayed history).
        config.recoveryObserver = [&oracle](int) {
            oracle.resetLiveChains();
        };
    }
    RunResult result = threaded ? runTrainingThreaded(space, config)
                                : runTraining(space, config);
    if (result.oom) {
        std::printf("%s on %s with %d GPUs: OOM (does not fit)\n",
                    system.name.c_str(), spaceName.c_str(), gpus);
        return 2;
    }
    if (result.failed) {
        std::fprintf(stderr, "error: %s\n", result.error.c_str());
        return result.retriesExhausted ? 5 : 3;
    }

    bool cspOk = true;
    if (verifyCsp) {
        // Post-hoc half of the audit: replay the complete access log
        // through the per-layer freshness/ordering invariants.
        oracle.auditLog(result.store->accessLog());
        cspOk = oracle.ok();
        if (!cspOk)
            std::fprintf(stderr, "%s", oracle.report().c_str());
    }

    if (!quiet) {
        const RunMetrics &m = result.metrics;
        std::printf("space       %s (%s sync, %d %s, seed %llu)\n",
                    spaceName.c_str(), system.syncName(), gpus,
                    threaded ? "threads" : "GPUs",
                    static_cast<unsigned long long>(seed));
        if (threaded) {
            std::printf("executor    threads  wall %.2fs  gate wait "
                        "%.2fs  %llu commits\n",
                        m.wallSeconds, m.gateWaitSeconds,
                        static_cast<unsigned long long>(
                            m.gateCommits));
            // Per-stage accounting: the threaded counterpart of the
            // sim's stall taxonomy (busy / gate wait / idle).
            TextTable table({"stage", "busy s", "gate wait s",
                             "idle s", "fwd", "bwd", "deferrals"});
            for (std::size_t s = 0; s < m.perStageBusySec.size();
                 s++) {
                table.addRow(
                    {std::to_string(s),
                     formatFixed(m.perStageBusySec[s], 3),
                     formatFixed(m.perStageGateWaitSec[s], 3),
                     formatFixed(m.perStageIdleSec[s], 3),
                     std::to_string(m.perStageForwards[s]),
                     std::to_string(m.perStageBackwards[s]),
                     std::to_string(m.perStageDeferrals[s])});
            }
            std::printf("%s", table.render().c_str());
        }
        std::printf("throughput  %.1f samples/s  (%.0f subnets/h, "
                    "batch %d)\n",
                    m.samplesPerSec, m.subnetsPerHour, m.batch);
        std::printf("pipeline    bubble %.2f  exec %.2fs  ALU %s\n",
                    m.bubbleRatio, m.meanExecSeconds,
                    formatFactor(m.totalAluUtilization, 1).c_str());
        std::printf("memory      GPU %s  CPU %s  cache %s\n",
                    formatFactor(m.gpuMemFactor, 1).c_str(),
                    m.cpuMemBytes ? formatBytes(m.cpuMemBytes).c_str()
                                  : "0",
                    formatCacheHitRate(m.cacheHitRate).c_str());
        if (m.faultsInjected > 0 || m.recoveries > 0) {
            std::printf("faults      %d injected  %d recoveries  "
                        "%d subnets replayed\n",
                        m.faultsInjected, m.recoveries,
                        m.subnetsReplayed);
            std::printf("recovery    %.2fs downtime  %.2fs compute "
                        "lost\n",
                        m.recoverySeconds, m.lostComputeSeconds);
        }
        if (m.checkpointsWritten > 0) {
            std::printf("checkpoints %d written (%s each, %.3fs total "
                        "write time)\n",
                        m.checkpointsWritten,
                        formatBytes(m.checkpointBytes).c_str(),
                        m.checkpointSeconds);
        }
        std::printf("training    loss %.6f  score %.2f  best SN%lld\n",
                    m.finalLoss, m.finalScore,
                    static_cast<long long>(result.bestSubnet));
        std::printf("causality   %d violated layers  weights %016llx\n",
                    m.causalViolations,
                    static_cast<unsigned long long>(
                        result.supernetHash));
        if (verifyCsp) {
            std::printf("verify-csp  %s  (%zu layers, %llu records, "
                        "%llu live commits)\n",
                        cspOk ? "ok" : "VIOLATED",
                        oracle.auditedLayers(),
                        static_cast<unsigned long long>(
                            oracle.auditedRecords()),
                        static_cast<unsigned long long>(
                            oracle.observedCommits()));
        }
    }

    obs::TraceHeader header;
    header.space = spaceName;
    header.executor = executorName;
    header.mode = obsWall ? "wall" : "logical";
    header.seed = seed;
    header.steps = steps;
    header.numStages = gpus;
    if (!tracePath.empty()) {
        // The run's own records, as --trace-out --obs-wall writes.
        obs::TraceHeader wall = header;
        wall.mode = "wall";
        std::ofstream out(tracePath);
        out << obs::chromeTraceJson(result.trace->records(), wall);
        if (!out)
            fatal("cannot write trace ", tracePath);
        if (!quiet)
            std::printf("trace       %s (chrome://tracing)\n",
                        tracePath.c_str());
    }
    if (!traceOutPath.empty() || !metricsOutPath.empty()) {
        // The deterministic observability exports. The logical
        // schedule is rebuilt from (sampled, partitions) — both pure
        // functions of the seed — never from run timing.
        obs::LogicalSchedule logical = obs::buildLogicalSchedule(
            space, result.sampled, result.partitions, gpus,
            result.metrics.batch,
            config.system.effectiveInflight(gpus));
        if (!traceOutPath.empty()) {
            std::ofstream out(traceOutPath);
            out << obs::chromeTraceJson(obsWall
                                            ? result.trace->records()
                                            : logical.spans,
                                        header);
            if (!out)
                fatal("cannot write trace ", traceOutPath);
            if (!quiet)
                std::printf("trace-out   %s (%s mode, Perfetto)\n",
                            traceOutPath.c_str(),
                            header.mode.c_str());
        }
        if (!metricsOutPath.empty()) {
            obs::RunMetadata meta;
            meta.space = spaceName;
            meta.executor = executorName;
            meta.seed = seed;
            meta.steps = steps;
            meta.numStages = gpus;
            meta.batch = result.metrics.batch;
            meta.wallMode = obsWall;
            meta.deterministicTiming = !threaded;
            std::ofstream out(metricsOutPath);
            out << obs::metricsJson(result, &result.observations,
                                    &logical, meta);
            if (!out)
                fatal("cannot write metrics ", metricsOutPath);
            if (!quiet)
                std::printf("metrics-out %s (%s mode)\n",
                            metricsOutPath.c_str(),
                            header.mode.c_str());
        }
    }
    if (!checkpointPath.empty()) {
        if (!result.store->saveFile(checkpointPath))
            fatal("cannot write checkpoint ", checkpointPath);
        if (!quiet)
            std::printf("checkpoint  %s\n", checkpointPath.c_str());
    }
    if (!csvPath.empty()) {
        CsvWriter csv({"time_s", "loss", "score"});
        for (const auto &p : result.curve) {
            csv.addRow({formatFixed(p.timeSec, 3),
                        formatFixed(p.loss, 6),
                        formatFixed(p.score, 4)});
        }
        if (!csv.writeFile(csvPath))
            fatal("cannot write csv ", csvPath);
        if (!quiet)
            std::printf("curve       %s\n", csvPath.c_str());
    }
    return cspOk ? 0 : 4;
}
