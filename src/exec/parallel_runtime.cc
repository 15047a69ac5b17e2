#include "exec/parallel_runtime.h"

#include <algorithm>

#include "common/logging.h"
#include "exec/commit_gate.h"
#include "exec/pool.h"
#include "fault/recovery_policy.h"
#include "obs/wall_clock.h"
#include "session/training_session.h"

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

/**
 * The coordinator (the thread calling run()) drives the shared
 * TrainingSession; this Impl is the session's execution backend —
 * it owns the commit gate, the job binding and the stage pool, and
 * dispatches every admitted subnet into stage 0.
 *
 * Gate and pool are *phase-scoped*: a fail-stop recovery quiesces the
 * pool and the session's rollback rebuilds both, exactly like the
 * simulator's phase rebuild. The recovery policy lives across phases;
 * the fault plan and counters live in the session.
 */
struct ParallelRuntime::Impl : ExecutionBackend {
    const SearchSpace &space;
    RuntimeConfig config;
    SystemModel model;
    int numStages;

    TrainingSession session;

    std::unique_ptr<CommitGate> gate;
    JobBinding binding;
    std::unique_ptr<SharedStagePool> pool;

    fault::RecoveryPolicy policy;
    bool failStopPending = false;  ///< coordinator-only freeze flag
    bool retriesExhausted = false;

    Impl(const SearchSpace &s, const RuntimeConfig &c)
        : space(s), config(c), model(c.system),
          numStages(c.numStages), session(s, config),
          policy(fault::RecoveryPolicy::Config{
              c.recoveryMaxRetries, c.recoveryBackoffSeconds, 60.0})
    {
        NASPIPE_ASSERT(numStages >= 1, "need >= 1 worker");
        NASPIPE_ASSERT(c.totalSubnets >= 1, "need >= 1 subnet");
        session.attach(this);
    }

    double
    elapsed() const
    {
        return obs::secondsSince(pool->epoch());
    }

    /**
     * Dispatch subnet @p id into the pipeline. Registration must
     * precede dispatch: every layer's causal chain is complete for
     * this subnet before any worker can resolve a claim against it.
     */
    void
    admit(SubnetId id) override
    {
        const Subnet &sn = session.subnetOf(id);
        auto run = std::make_shared<SubnetRun>();
        run->subnet = sn;
        run->partition = session.partitionOf(id);
        run->job = &binding;
        // Single job: ticket = sequence ID keeps the workers' forward
        // queues in Algorithm 2's lowest-ID-first order.
        run->ticket = static_cast<std::uint64_t>(id);
        for (int b = 0; b < sn.size(); b++) {
            if (space.parameterized(b, sn.choice(b)))
                gate->registerActivation(sn.layer(b).key(), sn.id());
        }
        pool->dispatch(std::move(run));
    }

    /**
     * A checkpoint-restored subnet needs no executor-side state:
     * deliberately NOT registered in the commit gate, so the live
     * run's causal chains start fresh at rank 0 — which keeps the
     * CspOracle's commit-monotonicity check valid across a resume
     * and across in-place recovery (which recreates the gate; a live
     * oracle resets its cursors via RuntimeConfig::recoveryObserver).
     * The restored store already holds its weight updates, and the
     * drained barrier guarantees it held no pipeline token.
     */
    void
    restoreCompleted(SubnetId id) override
    {
        (void)id;
    }

    void buildPhase();
    double workerBusySeconds() const;
    void checkFaults();
    bool recover();
    RunResult failure(const std::string &error) const;
    RunResult collect();
};

/**
 * Build this phase's gate, binding and (unstarted) pool, after
 * session.initRun(). The previous phase's pool must be quiesced.
 */
void
ParallelRuntime::Impl::buildPhase()
{
    // Pre-materialize every layer: after this, worker threads only
    // ever look up existing entries, so the store's maps need no
    // structural locking on the hot path.
    session.store()->materializeAll();

    gate = std::make_unique<CommitGate>();
    binding = JobBinding{0, &space, gate.get(),
                         config.numeric ? &session.exec() : nullptr};

    SharedStagePool::Config pc;
    pc.numStages = numStages;
    // A subnet owns exactly one live pipeline token, so the in-flight
    // limit bounds every inbox; the 2x slack keeps pushes
    // non-blocking.
    pc.inboxCapacity = static_cast<std::size_t>(
        std::max(2 * model.effectiveInflight(numStages), 8));
    pc.context.mode = model.memory;
    pc.context.predictor = model.predictor;
    // The §4.2 memory-limit check, same cap as the simulator: the
    // planned footprint covers the ~3 moving contexts of §3.3;
    // contexts awaiting their backward pass also linger, so the
    // enforced budget is 3x the plan.
    pc.context.budgetBytes =
        model.memory == MemoryMode::AllResident
            ? 0
            : 3 * session.plan().residentParamBytesPerGpu;
    pc.watchdogPollMs = config.watchdogPollMs;
    pc.wallDeadline = config.wallWatchdog;
    pc.deadlineSeconds = config.watchdogDeadlineSeconds;
    pc.recordTrace = config.traceEnabled;
    pool = std::make_unique<SharedStagePool>(space, pc);

    gate->onCommit([p = pool.get()] { p->notifyAll(); });
    if (config.commitObserver)
        gate->onCommitEvent(config.commitObserver);
}

/** Summed worker busy time of this phase (read after the join). */
double
ParallelRuntime::Impl::workerBusySeconds() const
{
    double total = 0.0;
    for (int k = 0; k < numStages; k++)
        total += pool->worker(k).stats().busySec;
    return total;
}

/**
 * Called after every recordCompletion. Fail-stop faults latch a
 * crash into the victim worker and freeze the coordinator
 * (failStopPending) until the watchdog's sentinel arrives; transient
 * faults only perturb timing.
 */
void
ParallelRuntime::Impl::checkFaults()
{
    for (const FaultSpec &f :
         session.dueFaults(ticksFromSec(elapsed()))) {
        int stage = std::clamp(f.stage, 0, numStages - 1);
        // A link fault hits the link below `b`; a one-stage pipeline
        // has no links.
        int b = std::min(stage, numStages - 2);
        switch (f.kind) {
          case FaultKind::GpuCrash:
            pool->injectCrash(stage);
            failStopPending = true;
            break;
          case FaultKind::LinkDrop:
            if (numStages < 2)
                break;
            // The downstream end of the dropped link loses its
            // traffic — fail-stop for the stage behind it.
            pool->injectCrash(b + 1);
            failStopPending = true;
            break;
          case FaultKind::StageStall:
            pool->injectStall(
                stage, std::max(1, static_cast<int>(f.durationMs)));
            break;
          case FaultKind::LinkDegrade:
            if (numStages < 2)
                break;
            pool->injectDegrade(
                b, std::max(1, static_cast<int>(f.durationMs)));
            break;
        }
    }
}

/**
 * In-place recovery after the pool quiesced: charge the attempt to
 * the policy, roll the session back to the last drained checkpoint
 * on a fresh phase (gate, pool) and respawn. Downtime is modeled,
 * not slept: detection + restart plus the policy's exponential
 * backoff.
 */
bool
ParallelRuntime::Impl::recover()
{
    double wallAtCrash = session.secOffset() + elapsed();
    double busyAtCrash = session.busyOffset() + workerBusySeconds();
    int incidentStage = pool->incidentStage();
    double backoff = policy.nextBackoffSeconds();
    inform("recovering ", pool->incidentDescription(), ", attempt ",
           policy.consecutiveFailures());

    auto rolled = session.rollback(wallAtCrash, busyAtCrash,
                                   config.recoverySeconds + backoff,
                                   [this] { buildPhase(); });
    if (!rolled)
        return false;
    // buildPhase() materialized the fresh store and restore() never
    // un-materializes a slot: the respawned workers' hot path stays
    // read-only on the store's structure.
    NASPIPE_ASSERT(session.store()->fullyMaterialized(),
                   "rolled-back store lost materialized layers");
    // initRun() reset the trace (the simulator loses its pre-crash
    // trace the same way) — the recovery span opens the new phase.
    session.trace()->add(TraceRecord{
        0, 0, std::max(incidentStage, 0), TraceKind::Recovery, -1,
        "rollback to " + std::to_string(rolled->toCompleted) +
            ", attempt " +
            std::to_string(policy.consecutiveFailures())});
    // The gate was recreated, so every causal chain restarts at rank
    // 0 — a live CspOracle resets its cursors through this hook.
    if (config.recoveryObserver)
        config.recoveryObserver(session.recoveries());
    failStopPending = false;
    pool->start();
    return true;
}

RunResult
ParallelRuntime::Impl::failure(const std::string &error) const
{
    RunResult out;
    out.failed = true;
    out.error = error;
    out.plan = session.plan();
    return out;
}

RunResult
ParallelRuntime::Impl::collect()
{
    double wall = elapsed();
    RunResult out =
        session.collect(session.secOffset() + wall,
                        session.busyOffset() + workerBusySeconds());
    RunMetrics &m = out.metrics;
    // wallSeconds is this process's real run time; simSeconds (set by
    // the session) additionally carries the producing run's seconds
    // across a resume, so throughput consumers work unchanged.
    m.wallSeconds = wall;
    m.execWorkers = numStages;

    double bubbleTotal = 0.0;
    for (int k = 0; k < numStages; k++) {
        const StageWorker &worker = pool->worker(k);
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
        if (wall > 0.0) {
            bubbleTotal +=
                std::clamp(1.0 - s.busySec / wall, 0.0, 1.0);
        }
        // Stage-ascending merge: deterministic observation order.
        out.observations.stages.push_back(worker.observation());
    }
    m.bubbleRatio =
        numStages > 0 ? bubbleTotal / numStages : 0.0;
    m.gateCommits = gate->commits();
    m.retriesExhausted = retriesExhausted ? 1 : 0;

    std::vector<const ContextManager *> contexts;
    for (int k = 0; k < numStages; k++)
        contexts.push_back(&pool->worker(k).ctx());
    reportCacheMetrics(contexts, m);

    if (config.traceEnabled) {
        std::vector<TraceRecord> merged;
        for (int k = 0; k < numStages; k++) {
            const auto &records = pool->worker(k).traceRecords();
            merged.insert(merged.end(), records.begin(),
                          records.end());
        }
        std::sort(merged.begin(), merged.end(),
                  [](const TraceRecord &a, const TraceRecord &b) {
                      return a.start != b.start ? a.start < b.start
                                                : a.stage < b.stage;
                  });
        for (const TraceRecord &rec : merged)
            out.trace->add(rec);
    }
    return out;
}

ParallelRuntime::ParallelRuntime(const SearchSpace &space,
                                 const RuntimeConfig &config)
    : _impl(std::make_unique<Impl>(space, config))
{
}

ParallelRuntime::~ParallelRuntime() = default;

double
ParallelRuntime::scoreScale() const
{
    return _impl->session.scoreScale();
}

RunResult
ParallelRuntime::run()
{
    Impl &im = *_impl;
    TrainingSession &session = im.session;
    std::string why;
    if (!supported(im.config, &why)) {
        RunResult out;
        out.failed = true;
        out.error = why;
        return out;
    }
    // Same capacity discipline as the simulator: identical batch =>
    // identical LR scaling and gradient-noise scale => the numeric
    // trajectory the equivalence harness compares bitwise.
    if (!session.initRun()) {
        RunResult out;
        out.oom = true;
        out.plan = session.plan();
        return out;
    }
    im.buildPhase();

    if (!im.config.resumePath.empty()) {
        if (!session.resume(im.config.resumePath)) {
            return im.failure("cannot resume from checkpoint '" +
                              im.config.resumePath + "'");
        }
        NASPIPE_ASSERT(session.store()->fullyMaterialized(),
                       "resumed store lost materialized layers");
    }

    im.pool->start();

    session.pump();
    while (session.finished() < session.totalSubnets() ||
           im.failStopPending) {
        std::shared_ptr<const SubnetRun> run =
            im.pool->completions().pop();

        if (!run) {
            // Watchdog sentinel: a stage crashed (or, under the
            // opt-in wall deadline, hung). Quiesce the surviving
            // workers, then either give up (bounded retries) or
            // roll back and respawn in place.
            im.pool->abort();
            if (!im.policy.allowRetry()) {
                im.retriesExhausted = true;
                RunResult out = im.failure(
                    "recovery retries exhausted after " +
                    std::to_string(im.policy.consecutiveFailures() +
                                   1) +
                    " consecutive failures (" +
                    im.pool->incidentDescription() + ")");
                out.retriesExhausted = true;
                return out;
            }
            if (!im.recover())
                return im.failure(
                    "recovery from the last checkpoint failed");
            session.pump();
            continue;
        }

        if (im.failStopPending) {
            // The world is frozen after a fail-stop fault, exactly
            // like the simulator's sim.stop(): stragglers that drain
            // before the watchdog's sentinel are *dropped*, not
            // recorded — the rollback replays them, and the logical
            // clock (hence subnetsReplayed and the fault plan's
            // remaining triggers) stays deterministic.
            continue;
        }
        float loss = 0.0f;
        if (im.config.numeric)
            loss = session.exec().finishSubnet(run->subnet);
        bool atBarrier = session.recordCompletion(
            run->subnet.id(), loss,
            session.secOffset() + im.elapsed());
        im.checkFaults();
        if (im.failStopPending)
            continue;  // no checkpoint at a crash-coincident barrier
        im.policy.noteProgress();
        if (atBarrier) {
            // The barrier is drained by construction: injection
            // paused at nextCkptAt, so no subnet is in flight, and
            // every worker write for a completed subnet is visible
            // here (gate-commit release edges plus the completion
            // queue's mutex hand-off). Threaded checkpoints carry
            // wall-clock seconds and no live busy accounting.
            RunCheckpoint ckpt = session.buildCheckpoint(
                session.secOffset() + im.elapsed(),
                session.busyOffset());
            session.commitCheckpoint(ckpt);
        }
        session.pump();
    }

    im.pool->shutdown();

    NASPIPE_ASSERT(session.finished() == session.totalSubnets(),
                   "run ended with ", session.finished(), " of ",
                   session.totalSubnets(), " subnets finished");
    return im.collect();
}

RunResult
runTrainingThreaded(const SearchSpace &space,
                    const RuntimeConfig &config)
{
    ParallelRuntime runtime(space, config);
    return runtime.run();
}

} // namespace naspipe
