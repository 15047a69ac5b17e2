#include "runtime/pipeline_runtime.h"

#include <algorithm>

#include "common/logging.h"
#include "exec/commit_gate.h"
#include "runtime/stage.h"
#include "schedule/csp_scheduler.h"
#include "session/training_session.h"
#include "sim/simulator.h"

namespace naspipe {

/**
 * The simulator-specific half of the run: the event loop, the cluster
 * model, the per-stage schedulers/context managers, mirroring, bulk
 * flushing and the hardware side of faults. Everything
 * executor-independent — sampling order, score delivery, checkpoint
 * cadence, resume, rollback, fault accounting, shared metrics — lives
 * in the TrainingSession this Impl backs.
 */
struct PipelineRuntime::Impl : ExecutionBackend {
    const SearchSpace &space;
    RuntimeConfig config;
    SystemModel model;
    int numStages;

    TrainingSession session;

    Simulator sim;
    std::unique_ptr<Cluster> cluster;
    std::vector<std::unique_ptr<Stage>> stages;
    std::unique_ptr<SchedulerPolicy> policy;
    std::unique_ptr<HomePlacement> placement;
    std::unique_ptr<MirrorPlanner> mirrors;
    std::unique_ptr<FlushController> flushCtl;

    UpdateSemantics semantics = UpdateSemantics::Immediate;
    /// Bytes of one boundary message, activations or gradients.
    std::uint64_t boundaryBytes = 0;

    // Simulator-side bookkeeping (the session owns subnets, losses
    // and completion times). Per-subnet entries die with the subnet.
    /// In-flight subnets' mirror entries, grouped per exec stage.
    std::map<SubnetId, std::map<int, std::vector<MirrorEntry>>>
        mirrorEntries;
    /// Last WRITE to a layer: (completion tick, writer stage).
    std::map<std::uint64_t, std::pair<Tick, int>> lastWrite;
    /**
     * CSP's write-visibility check, the threaded executor's gate used
     * single-threaded: admission registers each parameterized block,
     * a backward write commits it. Only CSP reads it, so only CSP
     * runs register and commit (other policies write out of order).
     * Restored subnets are not registered: the chains of a phase
     * start at rank 0.
     */
    std::unique_ptr<CommitGate> gate = std::make_unique<CommitGate>();
    /**
     * Busy seconds of this phase: a subnet folds into busyFolded in
     * sequence-ID order once it and every lower ID completed, so the
     * total keeps the bits of a per-subnet sum taken in ID order
     * (checkpoints record it). busyOpen holds the rest, from
     * admission on.
     */
    struct OpenBusy {
        double seconds = 0.0;
        bool completed = false;
    };
    double busyFolded = 0.0;
    std::map<SubnetId, OpenBusy> busyOpen;
    std::vector<SubnetId> pendingFinish;  ///< Deferred: await flush

    std::uint64_t stallEmptyQueues = 0;
    /// When a subnet's forward reached a stage, until it starts there.
    std::map<std::pair<int, SubnetId>, Tick> fwdArrival;
    std::uint64_t stallDependency = 0;
    std::uint64_t stallMirrorWait = 0;

    // A "phase" is one sim.run() between (re)starts; the session's
    // offsets carry wall-clock and busy time across phases.
    bool crashed = false;  ///< fail-stop fired; sim was stopped

    Impl(const SearchSpace &s, const RuntimeConfig &c)
        : space(s), config(c), model(c.system),
          numStages(c.numStages), session(s, config)
    {
        session.attach(this);
    }

    const Subnet &
    subnetOf(SubnetId id) const
    {
        return session.subnetOf(id);
    }

    std::pair<int, int>
    blockRange(int stage, SubnetId id) const
    {
        return session.blockRange(stage, id);
    }

    // ExecutionBackend: the simulator's injection veto and per-subnet
    // registration/restore hooks, called from the session's pump()
    // and restore().
    bool canAdmit(SubnetId next) const override;
    void admit(SubnetId id) override;
    void restoreCompleted(SubnetId id) override;
    void applyFault(const DueFault &fault) override;
    /** The modelled stages own no cores: search on this thread. */
    int searchThreads(int) const override { return 1; }

    void buildPhase();
    bool upstreamWritesDone(int stage, SubnetId id) const;
    void injectSubnets();
    double busySum() const;
    void resetRunState();
    bool beginRecovery();
    void tryDispatch(int k);
    void startForward(int k, SubnetId id);
    void startBackward(int k, SubnetId id);
    void onSubnetComplete(SubnetId id, Tick end);
    Tick taskDuration(const Subnet &sn, int lo, int hi,
                      TaskType type) const;
    Tick mirrorPushDelay(int writerStage, int readerStage,
                         std::uint64_t bytes) const;
    Tick readAvailable(const LayerId &layer, int readerStage) const;
    std::vector<PendingBackward> pendingMeta(int k) const;
    RunResult collect();
};

/** Build this phase's cluster and stages, after session.initRun(). */
void
PipelineRuntime::Impl::buildPhase()
{
    ClusterConfig cc;
    cc.numStages = numStages;
    cluster = std::make_unique<Cluster>(sim, cc);

    policy = makePolicy(model);
    placement = std::make_unique<HomePlacement>(space, numStages);
    mirrors = std::make_unique<MirrorPlanner>(space, *placement);
    if (model.bulkFlush) {
        flushCtl = std::make_unique<FlushController>(
            model.effectiveBulk(numStages));
    }

    if (model.weightStash)
        semantics = UpdateSemantics::WeightStash;
    else if (model.bulkFlush && model.policy != PolicyKind::Csp)
        semantics = UpdateSemantics::Deferred;
    else
        semantics = UpdateSemantics::Immediate;

    boundaryBytes = session.activationModel().boundaryBytesPerSample *
                    static_cast<std::uint64_t>(session.batch());

    for (int k = 0; k < numStages; k++) {
        Stage::Hooks hooks;
        hooks.blockRange = [this, k](SubnetId id) {
            return blockRange(k, id);
        };
        hooks.upstreamWritesDone = [this, k](SubnetId id) {
            return upstreamWritesDone(k, id);
        };
        // The §4.2 memory-limit check. The planned footprint covers
        // the ~3 moving contexts of §3.3 (previous/current/next);
        // contexts awaiting their backward pass also linger, so the
        // enforced cap is 3x the plan — under pressure the LRU
        // awaiting-backward contexts are evicted and re-fetched by
        // the predictor's released-backward path.
        std::uint64_t cacheBudget =
            model.memory == MemoryMode::AllResident
                ? 0
                : 3 * session.plan().residentParamBytesPerGpu;
        stages.push_back(std::make_unique<Stage>(
            space, cluster->gpu(k), k, numStages, model.memory,
            std::move(hooks), cacheBudget));
    }
}

bool
PipelineRuntime::Impl::upstreamWritesDone(int stage, SubnetId id) const
{
    const Subnet &sn = subnetOf(id);
    auto [lo, hi] = blockRange(stage, id);
    for (int b = lo; b <= hi; b++) {
        if (space.parameterized(b, sn.choice(b)) &&
            !gate->readable(gate->resolve(sn.layer(b).key(), id)))
            return false;
    }
    return true;
}

Tick
PipelineRuntime::Impl::taskDuration(const Subnet &sn, int lo, int hi,
                                    TaskType type) const
{
    // An empty stage range still costs a kernel-launch-scale hop.
    if (lo > hi)
        return ticksFromMs(0.2);
    double ms = 0.0;
    for (int b = lo; b <= hi; b++) {
        const LayerSpec &spec = space.spec(b, sn.choice(b));
        if (type == TaskType::Forward) {
            ms += spec.fwdMs;
        } else {
            ms += spec.bwdMs;
            // Activation recomputation replays the forward pass.
            if (model.recompute)
                ms += spec.fwdMs;
        }
    }
    // Kernel time scales with (overhead + batch), calibrated against
    // the family's reference batch.
    const ActivationModel &activation = session.activationModel();
    double factor =
        static_cast<double>(activation.overheadBatch +
                            session.batch()) /
        static_cast<double>(activation.overheadBatch +
                            space.referenceBatch());
    ms *= factor * activation.computeScale;
    return ticksFromMs(ms);
}

Tick
PipelineRuntime::Impl::mirrorPushDelay(int writerStage,
                                       int readerStage,
                                       std::uint64_t bytes) const
{
    if (writerStage == readerStage)
        return 0;
    // The active push travels GPU-to-GPU (peer DMA within a host,
    // Ethernet across hosts) without staging through host memory.
    Tick delay = 0;
    const InterconnectConfig ic{};
    bool cross = cluster->hostOf(writerStage) !=
                 cluster->hostOf(readerStage);
    double bw =
        cross ? ic.crossHostBytesPerSec : ic.intraHostBytesPerSec;
    delay += (cross ? ic.crossHostLatency : ic.intraHostLatency) +
             ticksFromSec(static_cast<double>(bytes) / bw);
    return delay;
}

Tick
PipelineRuntime::Impl::readAvailable(const LayerId &layer,
                                     int readerStage) const
{
    auto it = lastWrite.find(layer.key());
    if (it == lastWrite.end())
        return 0;
    auto [when, writerStage] = it->second;
    return when + mirrorPushDelay(writerStage, readerStage,
                                  space.spec(layer).paramBytes);
}

std::vector<PendingBackward>
PipelineRuntime::Impl::pendingMeta(int k) const
{
    // Forwards queued (not yet run) on this stage will produce
    // backwards later; their context can be prefetched by earlier
    // stages once the matching forward passes there (§3.3).
    std::vector<PendingBackward> meta;
    for (SubnetId id : stages[static_cast<std::size_t>(k)]
                           ->fwdCandidates()) {
        meta.push_back(PendingBackward{id, id});
    }
    return meta;
}

bool
PipelineRuntime::Impl::canAdmit(SubnetId next) const
{
    // BSP bulk barrier: the next bulk opens only when the previous
    // one fully flushed.
    return !flushCtl || flushCtl->canInject(next);
}

void
PipelineRuntime::Impl::admit(SubnetId id)
{
    const Subnet &sn = subnetOf(id);
    if (model.policy == PolicyKind::Csp) {
        for (int b = 0; b < sn.size(); b++) {
            if (space.parameterized(b, sn.choice(b)))
                gate->registerActivation(sn.layer(b).key(), id);
        }
    }
    if (model.mirroring) {
        auto entries = mirrors->plan(sn, session.partitionOf(id));
        mirrors->activate(entries);
        auto &grouped = mirrorEntries[sn.id()];
        for (auto &entry : entries)
            grouped[entry.execStage].push_back(entry);
    }
    for (auto &stage : stages)
        stage->registerSubnet(sn);

    busyOpen.emplace(id, OpenBusy{});
    fwdArrival[{0, sn.id()}] = sim.now();
    // Retrieval kicks off the context fetch for the entry stage
    // (§3.3: the fetch schedule starts when a subnet is known) —
    // but only within the cache budget of ~3 subnet contexts, so
    // a backed-up entry queue does not balloon GPU memory.
    if (model.predictor && stages[0]->fwdCandidates().size() < 3) {
        auto [lo, hi] = blockRange(0, sn.id());
        if (lo <= hi)
            stages[0]->ctx().prefetch(sn, lo, hi, sim.now());
    }

    stages[0]->pushFwd(sn.id());
}

void
PipelineRuntime::Impl::restoreCompleted(SubnetId id)
{
    const Subnet &sn = subnetOf(id);
    // A restored subnet never runs a backward, so it pushes no
    // mirror sync: activating its mirrors is all it needs.
    if (model.mirroring)
        mirrors->activate(mirrors->plan(sn, session.partitionOf(id)));
    // Registered then immediately finished on every stage: the
    // dependency frontiers advance past the restored prefix, and
    // the numeric executor never opens a context for it.
    for (auto &stage : stages) {
        stage->registerSubnet(sn);
        stage->mutableDeps().markFinished(sn.id());
    }
    if (flushCtl)
        flushCtl->onSubnetComplete(sn.id());
    // lastWrite stays empty: the restored store is globally
    // consistent, so every read is immediately available.
}

void
PipelineRuntime::Impl::injectSubnets()
{
    session.pump();
    tryDispatch(0);
}

void
PipelineRuntime::Impl::tryDispatch(int k)
{
    Stage &st = *stages[static_cast<std::size_t>(k)];
    if (!st.gpu().compute().freeBy(sim.now()))
        return;  // busy; the completion event re-triggers dispatch
    Decision d = policy->pick(st);
    if (!d.valid()) {
        // Classify the stall for the diagnostics of Table 2's bubble.
        if (st.fwdCandidates().empty() && st.bwdCandidates().empty()) {
            stallEmptyQueues++;
        } else if (model.policy == PolicyKind::Csp &&
                   CspPolicy::schedulableForward(st, -1, false) >= 0) {
            stallMirrorWait++;
        } else {
            stallDependency++;
        }
        return;
    }
    if (d.kind == Decision::Kind::Backward)
        startBackward(k, d.subnet);
    else
        startForward(k, d.subnet);
}

void
PipelineRuntime::Impl::startForward(int k, SubnetId id)
{
    Stage &st = *stages[static_cast<std::size_t>(k)];
    st.popFwd(id);
    const Subnet &sn = subnetOf(id);
    auto [lo, hi] = blockRange(k, id);

    // Algorithm 1 line 21: predictor runs after the pop, before the
    // forward executes.
    if (model.predictor) {
        st.predictor().beforeForward(
            st, id,
            [this](const Task &t, PredictReason) {
                auto [plo, phi] = blockRange(t.stage, t.subnet);
                if (plo <= phi) {
                    stages[static_cast<std::size_t>(t.stage)]
                        ->ctx()
                        .prefetch(subnetOf(t.subnet), plo, phi,
                                  sim.now());
                }
            });
    }

    // Pipeline-forwarding prediction: this subnet's activations head
    // to stage k+1 next, so that stage prefetches its share of the
    // context while this stage computes ("status passed from other
    // stages", §3.3).
    if (model.predictor && k + 1 < numStages) {
        auto [nlo, nhi] = blockRange(k + 1, id);
        if (nlo <= nhi) {
            stages[static_cast<std::size_t>(k) + 1]->ctx().prefetch(
                sn, nlo, nhi, sim.now());
        }
    }

    Tick ready = sim.now();
    if (lo <= hi)
        ready = std::max(ready, st.ctx().ensureResident(sn, lo, hi,
                                                     sim.now()));
    if (model.policy == PolicyKind::Csp && lo <= hi) {
        // CSP: a read of a shared layer must see the precedent
        // subnet's write, including the mirror push when the writer
        // ran on another stage (§4.2). Parameter-free skip layers
        // have no state to wait for.
        for (int b = lo; b <= hi; b++) {
            if (space.parameterized(b, sn.choice(b)))
                ready = std::max(ready, readAvailable(sn.layer(b), k));
        }
    }

    Tick duration = taskDuration(sn, lo, hi, TaskType::Forward);
    Tick start = st.gpu().compute().reserveFrom(ready, duration);
    Tick end = start + duration;

    // The numeric READ happens at task start: parameters are sampled
    // when the kernel launches.
    if (config.numeric) {
        sim.scheduleAt(start, [this, k, id, lo, hi] {
            const Subnet &subnet = subnetOf(id);
            if (lo <= hi)
                session.exec().forwardStage(subnet, lo, hi, semantics,
                                            k);
            if (k == numStages - 1)
                session.exec().computeLoss(subnet);
        });
    }

    sim.scheduleAt(
        end,
        [this, k, id, start, end] {
            {
                TraceRecord rec{start, end, k, TraceKind::Forward,
                                id, ""};
                auto it = fwdArrival.find({k, id});
                if (it != fwdArrival.end()) {
                    rec.detail = "wait_ms=" + std::to_string(
                        ticksToMs(start - it->second));
                    fwdArrival.erase(it);
                }
                session.trace()->add(rec);
            }
            busyOpen.at(id).seconds += ticksToSec(end - start);
            if (k + 1 < numStages) {
                Tick arrival =
                    cluster->link(k, k + 1).sendFrom(end,
                                                     boundaryBytes);
                sim.scheduleAt(
                    arrival,
                    [this, k, id] {
                        fwdArrival[{k + 1, id}] = sim.now();
                        stages[static_cast<std::size_t>(k) + 1]
                            ->pushFwd(id);
                        tryDispatch(k + 1);
                    },
                    EventPriority::Transfer);
            } else {
                // The last stage turns the forward around into the
                // backward pass.
                stages[static_cast<std::size_t>(k)]->pushBwd(id, {});
            }
            tryDispatch(k);
        },
        EventPriority::Completion);
}

void
PipelineRuntime::Impl::startBackward(int k, SubnetId id)
{
    Stage &st = *stages[static_cast<std::size_t>(k)];
    std::vector<PendingBackward> meta = st.popBwd(id);
    const Subnet &sn = subnetOf(id);
    auto [lo, hi] = blockRange(k, id);

    // Algorithm 1 line 6: predictor runs before the backward.
    if (model.predictor) {
        st.predictor().beforeBackward(
            st, id, meta,
            [this](const Task &t, PredictReason) {
                auto [plo, phi] = blockRange(t.stage, t.subnet);
                if (plo <= phi) {
                    stages[static_cast<std::size_t>(t.stage)]
                        ->ctx()
                        .prefetch(subnetOf(t.subnet), plo, phi,
                                  sim.now());
                }
            });
    }

    Tick ready = sim.now();
    if (lo <= hi)
        ready = std::max(ready, st.ctx().ensureResident(sn, lo, hi,
                                                     sim.now()));

    Tick duration = taskDuration(sn, lo, hi, TaskType::Backward);
    Tick start = st.gpu().compute().reserveFrom(ready, duration);
    Tick end = start + duration;

    sim.scheduleAt(
        end,
        [this, k, id, lo, hi, start, end] {
            Stage &stage = *stages[static_cast<std::size_t>(k)];
            const Subnet &subnet = subnetOf(id);
            session.trace()->add(TraceRecord{
                start, end, k, TraceKind::Backward, id, ""});
            busyOpen.at(id).seconds += ticksToSec(end - start);

            // The numeric WRITE (optimizer step) lands at completion.
            if (config.numeric && lo <= hi)
                session.exec().backwardStage(subnet, lo, hi, semantics,
                                             k);
            if (lo <= hi && semantics != UpdateSemantics::Deferred) {
                for (int b = lo; b <= hi; b++) {
                    if (!space.parameterized(b, subnet.choice(b)))
                        continue;
                    std::uint64_t key = subnet.layer(b).key();
                    lastWrite[key] = {end, k};
                    if (model.policy == PolicyKind::Csp)
                        gate->commit(gate->resolve(key, id), k);
                }
            }

            // Mirror push: updated mirrored parameters travel to the
            // other replicas (§4.2).
            if (model.mirroring) {
                auto subIt = mirrorEntries.find(id);
                if (subIt != mirrorEntries.end()) {
                    auto stIt = subIt->second.find(k);
                    if (stIt != subIt->second.end())
                        mirrors->recordSyncPush(stIt->second);
                }
            }

            stage.mutableDeps().markFinished(id);
            if (lo <= hi)
                stage.ctx().evictSubnet(subnet, lo, hi, sim.now());

            if (k > 0) {
                Tick arrival = cluster->link(k, k - 1).sendFrom(
                    end, boundaryBytes);
                auto carried = pendingMeta(k);
                sim.scheduleAt(
                    arrival,
                    [this, k, id, carried] {
                        stages[static_cast<std::size_t>(k) - 1]
                            ->pushBwd(id, carried);
                        tryDispatch(k - 1);
                    },
                    EventPriority::Transfer);
            } else {
                onSubnetComplete(id, end);
            }
            if (model.policy == PolicyKind::Csp) {
                // Newly visible writes may unblock forward
                // candidates on any stage (mirror pushes).
                for (int s = 0; s < numStages; s++)
                    tryDispatch(s);
            } else {
                tryDispatch(k);
            }
        },
        EventPriority::Completion);
}

void
PipelineRuntime::Impl::onSubnetComplete(SubnetId id, Tick end)
{
    mirrorEntries.erase(id);
    busyOpen.at(id).completed = true;
    for (auto it = busyOpen.begin();
         it != busyOpen.end() && it->second.completed;
         it = busyOpen.erase(it)) {
        busyFolded += it->second.seconds;
    }

    float loss = 0.0f;
    if (config.numeric) {
        if (semantics == UpdateSemantics::Deferred) {
            // Weights update only at the flush; the loss is already
            // known from the last forward stage.
            loss = session.exec().inflightLoss(id);
            pendingFinish.push_back(id);
        } else {
            loss = session.exec().finishSubnet(subnetOf(id));
        }
    }

    bool mayInject = true;
    if (flushCtl) {
        mayInject = flushCtl->onSubnetComplete(id);
        if (mayInject) {
            // BSP flush: apply the bulk's deferred updates together,
            // in sequence-ID order, then release the next bulk.
            if (config.numeric &&
                semantics == UpdateSemantics::Deferred) {
                session.exec().applyDeferredUpdates(pendingFinish);
                for (SubnetId fid : pendingFinish)
                    session.exec().finishSubnet(subnetOf(fid));
                pendingFinish.clear();
            }
            session.trace()->add(TraceRecord{
                end, end, 0, TraceKind::Flush, id, "bulk flush"});
        }
    }

    // After the flush, so a barrier checkpoint holds its weights.
    TrainingSession::Step step =
        session.applyCompletion(id, loss, ticksToSec(end), busySum());
    if (step.failStop) {
        crashed = true;
        sim.stop();  // the world is frozen; run() performs the recovery
        return;
    }
    if (step.checkpointed) {
        Tick resume = end + ticksFromSec(step.ckptWriteSeconds);
        session.trace()->add(TraceRecord{
            end, resume, 0, TraceKind::Checkpoint, -1,
            "completed=" + std::to_string(session.finished())});
        // Injection resumes once the write completes: the modeled
        // cost of a checkpoint is the pipeline drain plus the write.
        sim.scheduleAt(resume, [this] { injectSubnets(); });
    } else if (mayInject) {
        injectSubnets();
    }
}

double
PipelineRuntime::Impl::busySum() const
{
    double total = busyFolded;
    for (const auto &[id, open] : busyOpen)
        total += open.seconds;
    return total;
}

void
PipelineRuntime::Impl::applyFault(const DueFault &f)
{
    Tick now = sim.now();
    switch (f.spec.kind) {
      case FaultKind::GpuCrash:
        cluster->failStage(f.stage);
        break;
      case FaultKind::LinkDrop:
        cluster->dropBoundary(f.link);
        break;
      case FaultKind::StageStall: {
        // Occupy the stage's compute engine for the stall window;
        // the scheduled dispatch un-wedges a stage that went idle
        // behind the stall once it lifts.
        Tick dur = ticksFromMs(f.spec.durationMs);
        Tick start =
            cluster->gpu(f.stage).compute().reserveFrom(now, dur);
        sim.scheduleAt(start + dur,
                       [this, k = f.stage] { tryDispatch(k); });
        break;
      }
      case FaultKind::LinkDegrade:
        cluster->degradeBoundary(f.link, f.spec.factor);
        sim.scheduleAt(now + ticksFromMs(f.spec.durationMs),
                       [this, b = f.link] { cluster->restoreBoundary(b); });
        break;
    }
}

void
PipelineRuntime::Impl::resetRunState()
{
    sim.reset();
    stages.clear();
    cluster.reset();
    policy.reset();
    placement.reset();
    mirrors.reset();
    flushCtl.reset();
    mirrorEntries.clear();
    lastWrite.clear();
    gate = std::make_unique<CommitGate>();
    busyFolded = 0.0;
    busyOpen.clear();
    pendingFinish.clear();
    fwdArrival.clear();
    crashed = false;
    // Stall counters carry across phases deliberately: they are
    // cumulative diagnostics. The session's per-run state resets in
    // initRun(); its fault counters, checkpoint totals and time
    // offsets carry too.
}

bool
PipelineRuntime::Impl::beginRecovery()
{
    double simAtCrash = session.secOffset() + ticksToSec(sim.now());
    double busyAtCrash = session.busyOffset() + busySum();
    // restoreCompleted() needs the rebuilt stages, hence the phase
    // rebuild between the session's re-init and restore.
    auto rolled = session.rollback(
        simAtCrash, busyAtCrash, 0.0,
        [this] {
            resetRunState();
            buildPhase();
        });
    return rolled.has_value();
}

RunResult
PipelineRuntime::Impl::collect()
{
    RunResult out =
        session.collect(session.secOffset() + ticksToSec(sim.now()),
                        session.busyOffset() + busySum());
    RunMetrics &m = out.metrics;

    // Engine statistics cover only the final phase (earlier phases
    // died with the fault); utilization windows use phase-local time.
    double phaseSec = ticksToSec(sim.now());
    m.bubbleRatio = cluster->meanBubbleRatio();
    double eff = kernelEfficiency(session.batch(),
                                  session.activationModel()
                                      .overheadBatch);
    m.totalAluUtilization =
        cluster->totalAluUtilization(phaseSec) * eff;
    for (int s = 0; s < numStages; s++) {
        m.perGpuAlu.push_back(
            cluster->gpu(s).aluUtilization(phaseSec) * eff);
    }

    std::vector<const ContextManager *> contexts;
    for (const auto &stage : stages)
        contexts.push_back(&stage->ctx());
    reportCacheMetrics(contexts, m);
    if (model.mirroring) {
        m.mirrorSyncBytes = mirrors->stats().syncBytes;
        m.mirrorsCreated = mirrors->stats().mirrorsCreated;
    }

    m.stallEmptyQueues = stallEmptyQueues;
    m.stallDependency = stallDependency;
    m.stallMirrorWait = stallMirrorWait;
    return out;
}

PipelineRuntime::PipelineRuntime(const SearchSpace &space,
                                 const RuntimeConfig &config)
    : _impl(std::make_unique<Impl>(space, config))
{
}

PipelineRuntime::~PipelineRuntime() = default;

RunResult
PipelineRuntime::run()
{
    Impl &im = *_impl;
    TrainingSession &session = im.session;
    if (!session.initRun()) {
        RunResult out;
        out.oom = true;
        out.plan = session.plan();
        return out;
    }
    im.buildPhase();

    if (!im.config.resumePath.empty() &&
        !session.resume(im.config.resumePath)) {
        RunResult out;
        out.failed = true;
        out.error = "cannot resume from checkpoint '" +
                    im.config.resumePath + "'";
        out.plan = session.plan();
        return out;
    }

    im.injectSubnets();
    im.sim.run();
    while (im.crashed) {
        // Every fail-stop fault fires exactly once, bounding the
        // recovery loop by the plan size.
        NASPIPE_ASSERT(
            session.recoveries() <
                static_cast<int>(session.faults().plan().size()),
            "recovery loop exceeded the fault plan");
        if (!im.beginRecovery()) {
            RunResult out;
            out.failed = true;
            out.error = "recovery from the last checkpoint failed";
            out.plan = session.plan();
            return out;
        }
        im.injectSubnets();
        im.sim.run();
    }
    NASPIPE_ASSERT(session.finished() == im.config.totalSubnets,
                   "run ended with ", session.finished(), " of ",
                   im.config.totalSubnets, " subnets finished");
    return im.collect();
}

RunResult
runTraining(const SearchSpace &space, const RuntimeConfig &config)
{
    PipelineRuntime runtime(space, config);
    return runtime.run();
}

} // namespace naspipe
