/**
 * @file
 * Host-side measurement helpers of the benchmark: wall and CPU
 * clocks, peak RSS, host steal time, usable cores and the order
 * statistics every reported figure goes through.
 */

#ifndef NASPIPE_PERFBENCH_PROBE_H
#define NASPIPE_PERFBENCH_PROBE_H

#include <time.h>

#include <cstdint>
#include <vector>

namespace perfbench {

/** Monotonic wall clock in seconds (arbitrary origin). */
double wallNow();

/** Reading of clock @p id in seconds (e.g. a thread's CPU clock). */
double clockSeconds(clockid_t id);

/** User+sys CPU seconds of the whole process (all threads). */
double processCpu();

/** CPU seconds of the calling thread. */
double threadCpu();

/** A point on both clocks. */
struct Stamp {
    double wall = 0.0;
    double cpu = 0.0;
};

inline Stamp
stampNow()
{
    return Stamp{wallNow(), processCpu()};
}

/**
 * The host's pace: the CPU seconds a fixed float matrix-vector loop
 * of the benchmark's own (no library code) takes. The VM's CPU speed
 * drifts by 10-30% over tens of seconds as neighbours load the host.
 * The loop is slowed in step with the workload, so timings divided by
 * it and multiplied by kPaceNominalS no longer carry the drift.
 */
double paceLoop();

/**
 * The paceLoop() CPU time the scaled timings assume: the loop's time
 * on a quiet 4-core KVM guest (Intel Xeon, Sapphire Rapids
 * generation). A constant, so that it cancels between two runs.
 */
constexpr double kPaceNominalS = 0.0180;

/** Peak resident set size of the process in MB (VmHWM). */
double peakRssMb();

/** Cumulative host CPU jiffies from the /proc/stat "cpu" line. */
struct HostCpu {
    std::uint64_t steal = 0;
    std::uint64_t busy = 0;  ///< user + nice + system + irq + softirq
    std::uint64_t total = 0;
};
HostCpu readHostCpu();

/** Share of host CPU time stolen by the hypervisor between @p a, @p b. */
double stealShare(const HostCpu &a, const HostCpu &b);

/**
 * Share of the time the guest's CPUs wanted to run (busy or stolen)
 * between @p a and @p b that the hypervisor stole.
 */
double busyStealShare(const HostCpu &a, const HostCpu &b);

/** CPUs this process may run on (what `nproc` prints). */
int usableCores();

/** Median; 0 for an empty sample. */
double median(std::vector<double> v);

} // namespace perfbench

#endif // NASPIPE_PERFBENCH_PROBE_H
