#include "memory/swap_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace naspipe {

SwapModel::SwapModel(double bytesPerSec, Tick latency)
    : _bytesPerSec(bytesPerSec), _latency(latency)
{
    NASPIPE_ASSERT(bytesPerSec > 0.0, "swap bandwidth must be positive");
}

Tick
SwapModel::swapTime(std::uint64_t bytes) const
{
    if (bytes == 0)
        return 0;
    double sec = static_cast<double>(bytes) / _bytesPerSec;
    return _latency + ticksFromSec(sec);
}

double
SwapModel::swapMs(std::uint64_t bytes) const
{
    return ticksToMs(swapTime(bytes));
}

ActivationModel
defaultActivationModel(SpaceFamily family)
{
    // Calibration constants. bytesPerSample is the whole-pipeline
    // activation + workspace footprint of one sample; at depth D
    // each GPU carries bytesPerSample/D per live weight version.
    // Values are tuned so the derived batch sizes land in Table 2's
    // ballpark on the default 8-GPU testbed (GPipe NLP.c1 ~32,
    // PipeDream ~16, NASPipe/VPipe >150 before the cap).
    ActivationModel m;
    if (family == SpaceFamily::Nlp) {
        m.bytesPerSample = 208ULL << 20;  // 208 MB across pipeline
        m.maxBatch = 192;
        m.overheadBatch = 114;
        m.computeScale = 2.8;
        m.boundaryBytesPerSample = 32ULL << 10;  // 32 KB boundary
    } else {
        m.bytesPerSample = 704ULL << 20;  // 704 MB across pipeline
        m.maxBatch = 64;
        m.overheadBatch = 32;
        m.computeScale = 5.5;
        m.boundaryBytesPerSample = 96ULL << 10;  // 96 KB boundary
    }
    return m;
}

CapacityPlanner::CapacityPlanner(const SearchSpace &space,
                                 const GpuConfig &gpu,
                                 const ActivationModel &activation)
    : _supernetBytes(space.totalParamBytes()),
      _subnetBytes(space.meanSubnetParamBytes()), _gpu(gpu),
      _activation(activation)
{
    NASPIPE_ASSERT(activation.bytesPerSample > 0,
                   "activation model not initialized");
}

CapacityPlanner::CapacityPlanner(const SearchSpace &space,
                                 const GpuConfig &gpu)
    : CapacityPlanner(space, gpu,
                      defaultActivationModel(space.family()))
{
}

double
CapacityPlanner::residentParams(const SystemModel &system,
                                int numStages) const
{
    const double d = static_cast<double>(numStages);
    switch (system.memory) {
      case MemoryMode::AllResident: {
        double resident = static_cast<double>(_supernetBytes) / d;
        if (system.weightStash) {
            // Stashed weight versions of in-flight subnets (stage
            // share of a subnet times the mean version count). In
            // PipeDream's 1F1B steady state stage s holds D - s
            // versions, D - s - 1 of them extra: (D - 1) / 2 on
            // average over the stages.
            resident += static_cast<double>(_subnetBytes) / d *
                        ((d - 1.0) / 2.0);
        }
        return resident;
      }
      case MemoryMode::SwapOnDemand:
        return static_cast<double>(_subnetBytes) / d;
      case MemoryMode::PredictivePrefetch:
        // Previous (evicting) + current + next (prefetching): the
        // ~3x-of-one-subnet cache of §3.3.
        return 3.0 * static_cast<double>(_subnetBytes) / d;
    }
    return 0.0;
}

double
CapacityPlanner::perSampleBytes(const SystemModel &system,
                                int numStages) const
{
    const double d = static_cast<double>(numStages);
    // Each live weight version holds its share of the pipeline-wide
    // activation footprint; BSP keeps a bulk (B ~= D) of versions in
    // flight, ASP keeps (D - s) at stage s ((D+1)/2 on average), CSP
    // keeps about D.
    double liveVersions;
    if (system.weightStash)
        liveVersions = (d + 1.0) / 2.0;
    else
        liveVersions = static_cast<double>(
            system.bulkFlush ? system.effectiveBulk(numStages)
                             : numStages);
    double perSample =
        static_cast<double>(_activation.bytesPerSample) / d *
        liveVersions;
    if (system.recompute)
        perSample *= _activation.recomputeFactor;
    return perSample;
}

CapacityPlan
CapacityPlanner::plan(const SystemModel &system, int numStages) const
{
    NASPIPE_ASSERT(numStages >= 1, "need >= 1 stage");
    CapacityPlan out;

    const std::uint64_t usable =
        _gpu.memoryBytes > kReserveBytes
            ? _gpu.memoryBytes - kReserveBytes
            : 0;

    double resident = residentParams(system, numStages);
    out.residentParamBytesPerGpu =
        static_cast<std::uint64_t>(resident);
    double perSample = perSampleBytes(system, numStages);

    // --- Batch size. ---
    double budget = static_cast<double>(usable) - resident;
    int batch = 0;
    if (budget > 0.0)
        batch = static_cast<int>(std::floor(budget / perSample));
    batch = std::min(batch, _activation.maxBatch);
    out.fits = batch >= _activation.minBatch;
    out.batch = out.fits ? batch : 0;
    out.activationBytesPerGpu = out.fits
        ? static_cast<std::uint64_t>(perSample * batch)
        : 0;

    // --- CPU memory (pinned staging for swap-based systems). ---
    out.cpuMemBytesTotal =
        system.memory == MemoryMode::AllResident ? 0 : _supernetBytes;

    // --- Reported "Para." (Table 2): what the system keeps around.
    switch (system.memory) {
      case MemoryMode::AllResident:
        out.reportedParamBytes = _supernetBytes;
        break;
      case MemoryMode::SwapOnDemand:
        out.reportedParamBytes = _subnetBytes;
        break;
      case MemoryMode::PredictivePrefetch:
        out.reportedParamBytes = 3 * _subnetBytes;
        break;
    }

    return out;
}

CapacityPlan
CapacityPlanner::planWithBatch(const SystemModel &system,
                               int numStages, int batch) const
{
    NASPIPE_ASSERT(batch >= 1, "pinned batch must be >= 1");
    CapacityPlan out = plan(system, numStages);
    const std::uint64_t usable =
        _gpu.memoryBytes > kReserveBytes
            ? _gpu.memoryBytes - kReserveBytes
            : 0;
    double resident = residentParams(system, numStages);
    double activations =
        perSampleBytes(system, numStages) * batch;
    out.batch = batch;
    out.activationBytesPerGpu =
        static_cast<std::uint64_t>(activations);
    out.fits = resident + activations <=
               static_cast<double>(usable);
    return out;
}

} // namespace naspipe
