#include "probe.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

double
clockSeconds(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpu()
{
    return clockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

double
threadCpu()
{
    return clockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

double
paceLoop()
{
    constexpr int kDim = 128;
    constexpr int kIters = 2000;
    static std::vector<float> m(kDim * kDim, 0.01f);
    std::vector<float> v(kDim, 1.0f), out(kDim);
    double start = threadCpu();
    for (int k = 0; k < kIters; k++) {
        for (int r = 0; r < kDim; r++) {
            float s = 0.0f;
            for (int c = 0; c < kDim; c++)
                s += m[r * kDim + c] * v[c];
            out[r] = s;
        }
        // Feed the result back so no iteration can be skipped.
        v[k % kDim] = out[(k * 7) % kDim] * 0.5f + 0.5f;
    }
    double pace = threadCpu() - start;
    volatile float sink = v[0];
    (void)sink;
    return pace;
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

HostCpu
readHostCpu()
{
    // cpu  user nice system idle iowait irq softirq steal guest ...
    // guest time is already counted in user, so it is not summed.
    std::ifstream in("/proc/stat");
    std::string label;
    in >> label;
    HostCpu out;
    if (label != "cpu")
        return out;
    for (int field = 0; field < 8; field++) {
        std::uint64_t v = 0;
        in >> v;
        out.total += v;
        if (field == 7)
            out.steal = v;
        else if (field != 3 && field != 4)  // idle, iowait
            out.busy += v;
    }
    return out;
}

double
stealShare(const HostCpu &a, const HostCpu &b)
{
    if (b.total <= a.total)
        return 0.0;
    return static_cast<double>(b.steal - a.steal) /
           static_cast<double>(b.total - a.total);
}

double
busyStealShare(const HostCpu &a, const HostCpu &b)
{
    std::uint64_t steal = b.steal - a.steal;
    std::uint64_t wanted = steal + (b.busy - a.busy);
    return wanted ? static_cast<double>(steal) / wanted : 0.0;
}

int
usableCores()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return CPU_COUNT(&set);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace perfbench
