/**
 * @file
 * End-of-run metrics: everything Table 2, Figures 5-7 and the
 * reproducibility tables report about one training run.
 */

#ifndef NASPIPE_RUNTIME_METRICS_H
#define NASPIPE_RUNTIME_METRICS_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace naspipe {

/** Aggregate metrics of one simulated training run. */
struct RunMetrics {
    // Progress.
    int finishedSubnets = 0;
    int batch = 0;
    double simSeconds = 0.0;

    // Throughput.
    double samplesPerSec = 0.0;
    double subnetsPerHour = 0.0;

    // Pipeline quality.
    double bubbleRatio = 0.0;       ///< mean idle fraction (Table 2)
    double meanExecSeconds = 0.0;   ///< per-subnet busy time (Exec.)
    double totalAluUtilization = 0.0;  ///< sum over GPUs (Fig 7)
    std::vector<double> perGpuAlu;     ///< per-GPU utilization
    /** Max over min per-GPU ALU: the imbalance §5.4 blames for the
     * baselines' poor scaling (1.0 = perfectly even). */
    double aluImbalance() const;

    // Memory.
    double gpuMemFactor = 0.0;      ///< total GPU mem / one GPU (7.8x)
    std::uint64_t cpuMemBytes = 0;  ///< pinned CPU storage
    std::uint64_t reportedParamBytes = 0;  ///< "Para." column

    // Context management. No value means "no cache": AllResident
    // systems keep everything on the GPU, so a hit rate is not merely
    // unknown but meaningless — the optional makes consumers say so
    // explicitly instead of interpreting a sentinel.
    std::optional<double> cacheHitRate;
    std::uint64_t prefetchedBytes = 0;
    std::uint64_t syncFetchedBytes = 0;
    std::uint64_t cachePeakBytes = 0;    ///< max resident set seen
    std::uint64_t cacheBudgetBytes = 0;  ///< §4.2 enforced cap
    std::uint64_t mirrorSyncBytes = 0;
    std::uint64_t mirrorsCreated = 0;

    // Dispatch diagnostics: how often a free stage found nothing to
    // run, by cause.
    std::uint64_t stallEmptyQueues = 0;   ///< no arrived tasks at all
    std::uint64_t stallDependency = 0;    ///< Algorithm 2 blocked all
    std::uint64_t stallMirrorWait = 0;    ///< waiting on mirror push

    // Fault injection and recovery.
    int faultsInjected = 0;    ///< fault-plan entries that fired
    int recoveries = 0;        ///< checkpoint rollbacks performed
    int subnetsReplayed = 0;   ///< subnets redone after rollbacks
    double recoverySeconds = 0.0;     ///< detect+restart wall clock
    double lostComputeSeconds = 0.0;  ///< busy time discarded
    int retriesExhausted = 0;  ///< 1 when recovery gave up (exit 5)
    int checkpointsWritten = 0;
    std::uint64_t checkpointBytes = 0;  ///< size of the last one
    double checkpointSeconds = 0.0;     ///< total time spent writing

    // Threaded executor (runTrainingThreaded). wallSeconds is real
    // wall-clock time; for threaded runs simSeconds is set to it so
    // throughput consumers work unchanged. The per-stage vectors are
    // indexed by stage and the gate numbers come from the CommitGate.
    double wallSeconds = 0.0;
    int execWorkers = 0;               ///< 0 = simulated run
    double gateWaitSeconds = 0.0;      ///< sum over workers
    std::uint64_t gateCommits = 0;
    std::vector<double> perStageBusySec;
    std::vector<double> perStageGateWaitSec;
    std::vector<double> perStageIdleSec;
    // Per-stage task counters. Forward/backward counts are
    // structural (one each per subnet per stage); deferral counts
    // depend on the real interleaving.
    std::vector<std::uint64_t> perStageForwards;
    std::vector<std::uint64_t> perStageBackwards;
    std::vector<std::uint64_t> perStageDeferrals;

    // Training quality (numeric engine).
    double finalLoss = 0.0;
    double finalScore = 0.0;
    std::uint64_t supernetHash = 0;
    int causalViolations = 0;  ///< layers w/ non-sequential history

    /** One-line summary for logs. */
    std::string summary() const;
};

/**
 * Useful-ALU efficiency of a kernel at @p batch given the fixed
 * overhead expressed as @p overheadBatch: batch / (batch + overhead).
 * Captures why tiny batches burn wall-clock without filling the SMs.
 */
double kernelEfficiency(int batch, int overheadBatch);

/**
 * Canonical rendering of an optional cache-hit rate: the percentage
 * when present, "N/A" when the system has no cache. Every report
 * surface (summary line, Table 2, CLI) uses this one formatter.
 */
std::string
formatCacheHitRate(const std::optional<double> &rate);

} // namespace naspipe

#endif // NASPIPE_RUNTIME_METRICS_H
