#include "exec/parallel_runtime.h"

#include <algorithm>

#include "common/logging.h"
#include "serve/service.h"

namespace naspipe {

bool
ParallelRuntime::supported(const RuntimeConfig &config,
                           std::string *why)
{
    auto reject = [&](const char *reason) {
        if (why)
            *why = reason;
        return false;
    };
    if (config.system.policy != PolicyKind::Csp) {
        return reject("threaded executor requires a CSP system: "
                      "BSP/ASP weights depend on the interleaving, "
                      "which real threads cannot replay");
    }
    if (config.system.weightStash)
        return reject("weight stashing is simulator-only");
    if (config.system.bulkFlush)
        return reject("bulk-flush (BSP) systems are simulator-only");
    return true;
}

namespace {

/** The --obs-wall hang deadline: a threaded run fails when no subnet
 *  completes for this long while work is in flight. */
constexpr double kWallDeadlineSeconds = 30.0;

/**
 * Fill the executor half of a solo run's metrics from its joined
 * pool: per-stage accounting, the bubble ratio, the worker busy
 * time, cache metrics, the merged worker trace and the stage
 * observations. The pool served this one job for the whole run, so
 * every counter covers every recovery phase.
 */
void
reportPool(const SharedStagePool &pool, int numStages, RunResult &out)
{
    RunMetrics &m = out.metrics;
    double wall = m.wallSeconds;
    double bubbleTotal = 0.0;
    double busyTotal = 0.0;
    std::vector<const ContextManager *> contexts;
    std::vector<TraceRecord> merged;
    for (int k = 0; k < numStages; k++) {
        const StageWorker &worker = pool.worker(k);
        const StageWorker::Stats &s = worker.stats();
        m.perStageBusySec.push_back(s.busySec);
        m.perStageGateWaitSec.push_back(s.gateWaitSec);
        m.perStageIdleSec.push_back(s.idleSec);
        m.perStageForwards.push_back(s.forwards);
        m.perStageBackwards.push_back(s.backwards);
        m.perStageDeferrals.push_back(s.deferrals);
        // The sim's stall taxonomy, threaded counterpart: a deferral
        // is Algorithm 2 blocking every queued forward, an idle
        // wakeup is a sleep with nothing queued at all.
        m.stallDependency += s.deferrals;
        m.stallEmptyQueues += s.idleWakeups;
        m.gateWaitSeconds += s.gateWaitSec;
        busyTotal += s.busySec;
        if (wall > 0.0)
            bubbleTotal += std::clamp(1.0 - s.busySec / wall, 0.0, 1.0);
        // Stage-ascending merge: deterministic observation order.
        out.observations.stages.push_back(worker.observation());
        contexts.push_back(&worker.ctx());
        const auto &records = worker.traceRecords();
        merged.insert(merged.end(), records.begin(), records.end());
    }
    m.bubbleRatio = bubbleTotal / numStages;
    // The session only knows the busy time carried in by a resume.
    if (m.finishedSubnets > 0)
        m.meanExecSeconds += busyTotal / m.finishedSubnets;
    reportCacheMetrics(contexts, m);

    std::sort(merged.begin(), merged.end(),
              [](const TraceRecord &a, const TraceRecord &b) {
                  return a.start != b.start ? a.start < b.start
                                            : a.stage < b.stage;
              });
    for (const TraceRecord &rec : merged)
        out.trace->add(rec);
}

} // namespace

RunResult
runTrainingThreaded(const SearchSpace &space,
                    const RuntimeConfig &config)
{
    std::string why;
    if (!ParallelRuntime::supported(config, &why)) {
        RunResult out;
        out.failed = true;
        out.error = why;
        return out;
    }
    serve::ServiceConfig sc;
    sc.numStages = config.numStages;
    sc.wallDeadlineSeconds =
        config.wallWatchdog ? kWallDeadlineSeconds : 0.0;
    if (config.commitObserver) {
        sc.commitObserver = [observer = config.commitObserver](
                                int, std::uint64_t layerKey,
                                SubnetId subnet, std::size_t rank,
                                int stage) {
            observer(layerKey, subnet, rank, stage);
        };
    }
    if (config.recoveryObserver) {
        sc.recoveryObserver = [observer = config.recoveryObserver](
                                  int, int recoveries) {
            observer(recoveries);
        };
    }
    serve::SearchService service(sc);
    int id = service.submitInProcess(space, config, &why);
    NASPIPE_ASSERT(id > 0, "in-process submission refused: ", why);
    service.run();
    RunResult out = service.takeResult(id);
    if (!out.failed)
        reportPool(*service.pool(), config.numStages, out);
    return out;
}

} // namespace naspipe
