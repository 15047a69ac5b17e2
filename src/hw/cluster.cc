#include "hw/cluster.h"

#include "common/logging.h"

namespace naspipe {

Cluster::Cluster(Simulator &sim, const ClusterConfig &config)
    : _sim(sim), _config(config)
{
    NASPIPE_ASSERT(config.numStages >= 1, "cluster needs >= 1 stage");
    NASPIPE_ASSERT(config.gpusPerHost >= 1,
                   "cluster needs >= 1 GPU per host");

    _gpus.reserve(static_cast<std::size_t>(config.numStages));
    for (int s = 0; s < config.numStages; s++)
        _gpus.push_back(std::make_unique<Gpu>(sim, s, config.gpu));

    for (int s = 0; s + 1 < config.numStages; s++) {
        LinkType type = hostOf(s) == hostOf(s + 1)
                            ? LinkType::IntraHostPcie
                            : LinkType::CrossHostEther;
        _links.push_back(std::make_unique<StageLink>(
            sim, s, s + 1, type, config.interconnect));
        _links.push_back(std::make_unique<StageLink>(
            sim, s + 1, s, type, config.interconnect));
    }
}

Gpu &
Cluster::gpu(int stage)
{
    NASPIPE_ASSERT(stage >= 0 && stage < numStages(),
                   "stage ", stage, " out of range");
    return *_gpus[static_cast<std::size_t>(stage)];
}

const Gpu &
Cluster::gpu(int stage) const
{
    NASPIPE_ASSERT(stage >= 0 && stage < numStages(),
                   "stage ", stage, " out of range");
    return *_gpus[static_cast<std::size_t>(stage)];
}

int
Cluster::hostOf(int stage) const
{
    NASPIPE_ASSERT(stage >= 0 && stage < numStages(),
                   "stage ", stage, " out of range");
    return stage / _config.gpusPerHost;
}

std::size_t
Cluster::linkIndex(int fromStage, int toStage) const
{
    NASPIPE_ASSERT(fromStage >= 0 && fromStage < numStages() &&
                       toStage >= 0 && toStage < numStages(),
                   "link endpoints out of range");
    NASPIPE_ASSERT(fromStage + 1 == toStage || toStage + 1 == fromStage,
                   "links exist only between adjacent stages");
    if (fromStage + 1 == toStage)
        return static_cast<std::size_t>(fromStage) * 2;
    return static_cast<std::size_t>(toStage) * 2 + 1;
}

StageLink &
Cluster::link(int fromStage, int toStage)
{
    return *_links[linkIndex(fromStage, toStage)];
}

void
Cluster::degradeBoundary(int boundary, double factor)
{
    link(boundary, boundary + 1).degrade(factor);
    link(boundary + 1, boundary).degrade(factor);
}

void
Cluster::restoreBoundary(int boundary)
{
    link(boundary, boundary + 1).restore();
    link(boundary + 1, boundary).restore();
}

void
Cluster::dropBoundary(int boundary)
{
    link(boundary, boundary + 1).setDown();
    link(boundary + 1, boundary).setDown();
}


double
Cluster::totalAluUtilization(double windowEnd) const
{
    double total = 0.0;
    for (const auto &gpu : _gpus)
        total += gpu->aluUtilization(windowEnd);
    return total;
}

double
Cluster::meanBubbleRatio() const
{
    if (_gpus.empty())
        return 0.0;
    double total = 0.0;
    for (const auto &gpu : _gpus)
        total += gpu->compute().utilization().bubbleRatio();
    return total / static_cast<double>(_gpus.size());
}

void
Cluster::reset()
{
    for (auto &gpu : _gpus)
        gpu->reset();
    for (auto &link : _links)
        link->reset();
}

} // namespace naspipe
