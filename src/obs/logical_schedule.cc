#include "obs/logical_schedule.h"

#include <algorithm>
#include <queue>
#include <set>

#include "common/logging.h"

namespace naspipe {
namespace obs {

namespace {

/** One dependency edge: when `from` completes, `to` loses one unmet
 *  dependency. Gate edges carry the block whose layer chain they
 *  model (-1 for structural pipeline edges). */
struct DepEdge {
    int to = -1;
    int gateBlock = -1;
};

struct TaskState {
    Tick cost = 0;
    int unmet = 0;
    Tick pipeReady = 0;   ///< max end over structural deps
    Tick gateReady = 0;   ///< max end over gate (commit) deps
    int gateBlocker = -1; ///< task whose commit set gateReady
    int gateBlock = -1;   ///< block of the binding gate edge
    Tick start = 0;
    Tick end = 0;
    bool scheduled = false;
};

} // namespace

LogicalSchedule
buildLogicalSchedule(const SearchSpace &space,
                     const std::vector<Subnet> &subnets,
                     const std::vector<SubnetPartition> &partitions,
                     int numStages, int batch, int inflightLimit)
{
    NASPIPE_ASSERT(subnets.size() == partitions.size(),
                   "subnets/partitions size mismatch");
    LogicalSchedule out;
    out.stageBusyTicks.assign(static_cast<std::size_t>(numStages), 0);
    const int n = static_cast<int>(subnets.size());
    if (n == 0 || numStages < 1)
        return out;
    if (batch < 1)
        batch = 1;
    const int refBatch = space.referenceBatch();
    const int total = 2 * n * numStages;

    // Task ids: forward(i, s) = 2*(i*D + s), backward(i, s) = +1.
    auto fwdId = [&](int i, int s) { return 2 * (i * numStages + s); };
    auto bwdId = [&](int i, int s) {
        return 2 * (i * numStages + s) + 1;
    };
    auto subnetOf = [&](int tid) { return (tid / 2) / numStages; };
    auto stageOf = [&](int tid) { return (tid / 2) % numStages; };
    auto isBackward = [&](int tid) { return (tid & 1) != 0; };

    std::vector<TaskState> tasks(static_cast<std::size_t>(total));
    std::vector<std::vector<DepEdge>> dependents(
        static_cast<std::size_t>(total));
    auto addDep = [&](int from, int to, int gateBlock) {
        dependents[static_cast<std::size_t>(from)].push_back(
            DepEdge{to, gateBlock});
        tasks[static_cast<std::size_t>(to)].unmet++;
    };

    // Ascending activator list per (block, choice): the causal chain
    // the CommitGate orders, rebuilt from the sampled sequence.
    const int choices = space.choicesPerBlock();
    std::vector<std::vector<int>> chains(
        static_cast<std::size_t>(space.numBlocks() * choices));
    for (int i = 0; i < n; i++) {
        const Subnet &sn = subnets[static_cast<std::size_t>(i)];
        for (int b = 0; b < sn.size(); b++) {
            if (space.parameterized(b, sn.choice(b)))
                chains[static_cast<std::size_t>(b * choices +
                                                sn.choice(b))]
                    .push_back(i);
        }
    }

    // Costs and dependency edges.
    for (int i = 0; i < n; i++) {
        const Subnet &sn = subnets[static_cast<std::size_t>(i)];
        const SubnetPartition &part =
            partitions[static_cast<std::size_t>(i)];
        for (int s = 0; s < numStages; s++) {
            int lo = part.firstBlock(s), hi = part.lastBlock(s);
            double fwdMs = 0.0, bwdMs = 0.0;
            for (int b = lo; b <= hi; b++) {
                const LayerSpec &spec = space.spec(b, sn.choice(b));
                fwdMs += spec.fwdMsAt(batch, refBatch);
                bwdMs += spec.bwdMsAt(batch, refBatch);
            }
            // Empty or parameter-free stages still occupy the stage
            // for one logical microsecond so spans stay visible.
            tasks[static_cast<std::size_t>(fwdId(i, s))].cost =
                std::max<Tick>(ticksFromMs(fwdMs), kTicksPerUs);
            tasks[static_cast<std::size_t>(bwdId(i, s))].cost =
                std::max<Tick>(ticksFromMs(bwdMs), kTicksPerUs);

            // Pipeline structure: forwards flow 0 -> D-1, backwards
            // flow D-1 -> 0, turning around at the last stage.
            if (s > 0)
                addDep(fwdId(i, s - 1), fwdId(i, s), -1);
            if (s < numStages - 1)
                addDep(bwdId(i, s + 1), bwdId(i, s), -1);
            else
                addDep(fwdId(i, s), bwdId(i, s), -1);
        }
        // Injection gate: subnet i enters stage 0 only after subnet
        // i - inflightLimit fully completed (its stage-0 backward).
        if (inflightLimit > 0 && i >= inflightLimit)
            addDep(bwdId(i - inflightLimit, 0), fwdId(i, 0), -1);
    }

    // Gate edges: forward(i, s) reads layer (b, c) only after every
    // lower activator j of that chain committed — and j's commit is
    // its backward on the stage owning block b under j's partition.
    for (int i = 0; i < n; i++) {
        const Subnet &sn = subnets[static_cast<std::size_t>(i)];
        const SubnetPartition &part =
            partitions[static_cast<std::size_t>(i)];
        for (int s = 0; s < numStages; s++) {
            int lo = part.firstBlock(s), hi = part.lastBlock(s);
            // (blocker task, block) edges, deduped per blocker.
            std::vector<std::pair<int, int>> edges;
            for (int b = lo; b <= hi; b++) {
                if (!space.parameterized(b, sn.choice(b)))
                    continue;
                const std::vector<int> &chain = chains
                    [static_cast<std::size_t>(b * choices +
                                              sn.choice(b))];
                for (int j : chain) {
                    if (j >= i)
                        break;
                    int commitStage =
                        partitions[static_cast<std::size_t>(j)]
                            .stageOf(b);
                    edges.emplace_back(bwdId(j, commitStage), b);
                }
            }
            std::sort(edges.begin(), edges.end());
            edges.erase(std::unique(edges.begin(), edges.end(),
                                    [](const auto &a, const auto &b) {
                                        return a.first == b.first;
                                    }),
                        edges.end());
            for (const auto &[blocker, block] : edges)
                addDep(blocker, fwdId(i, s), block);
        }
    }

    // Deterministic list scheduling: one task at a time per stage,
    // backwards first, then the lowest-sequence-ID ready forward —
    // Algorithm 1/2 on a logical clock.
    std::vector<std::set<int>> bwdReady(
        static_cast<std::size_t>(numStages));
    std::vector<std::set<int>> fwdReady(
        static_cast<std::size_t>(numStages));
    auto enqueueReady = [&](int tid) {
        int s = stageOf(tid);
        if (isBackward(tid))
            bwdReady[static_cast<std::size_t>(s)].insert(tid);
        else
            fwdReady[static_cast<std::size_t>(s)].insert(tid);
        TaskState &task = tasks[static_cast<std::size_t>(tid)];
        if (task.gateReady > task.pipeReady && task.gateBlocker >= 0) {
            // The chain held this forward past its pipeline arrival:
            // that interval is the logical gate wait.
            const Subnet &sn =
                subnets[static_cast<std::size_t>(subnetOf(tid))];
            LogicalGateWait wait;
            wait.stage = s;
            wait.layerKey = sn.layer(task.gateBlock).key();
            wait.waiter = sn.id();
            wait.blocker =
                subnets[static_cast<std::size_t>(
                            subnetOf(task.gateBlocker))]
                    .id();
            wait.ticks = task.gateReady - task.pipeReady;
            out.gateWaits.push_back(wait);
            out.totalGateWaitTicks += wait.ticks;
            out.spans.push_back(TraceRecord{
                task.pipeReady, task.gateReady, s, TraceKind::Stall,
                wait.waiter,
                "gate b" + std::to_string(task.gateBlock) + "c" +
                    std::to_string(sn.choice(task.gateBlock)) +
                    " <- SN" + std::to_string(wait.blocker)});
        }
    };
    for (int tid = 0; tid < total; tid++) {
        if (tasks[static_cast<std::size_t>(tid)].unmet == 0)
            enqueueReady(tid);
    }

    std::priority_queue<Tick, std::vector<Tick>, std::greater<Tick>>
        events;
    events.push(0);
    std::vector<int> running(static_cast<std::size_t>(numStages), -1);
    int completed = 0;

    while (completed < total) {
        NASPIPE_ASSERT(!events.empty(),
                       "logical schedule deadlocked with ",
                       total - completed, " tasks left");
        Tick t = events.top();
        while (!events.empty() && events.top() == t)
            events.pop();

        // Completion pass (all stages, ascending) before scheduling,
        // so a commit at t releases forwards that may start at t.
        for (int s = 0; s < numStages; s++) {
            int tid = running[static_cast<std::size_t>(s)];
            if (tid < 0 ||
                tasks[static_cast<std::size_t>(tid)].end != t)
                continue;
            running[static_cast<std::size_t>(s)] = -1;
            completed++;
            for (const DepEdge &edge :
                 dependents[static_cast<std::size_t>(tid)]) {
                TaskState &dep =
                    tasks[static_cast<std::size_t>(edge.to)];
                if (edge.gateBlock < 0) {
                    dep.pipeReady = std::max(dep.pipeReady, t);
                } else if (t > dep.gateReady) {
                    dep.gateReady = t;
                    dep.gateBlocker = tid;
                    dep.gateBlock = edge.gateBlock;
                }
                if (--dep.unmet == 0)
                    enqueueReady(edge.to);
            }
        }

        // Scheduling pass: each free stage picks at most one task.
        for (int s = 0; s < numStages; s++) {
            if (running[static_cast<std::size_t>(s)] >= 0)
                continue;
            std::set<int> &bwd = bwdReady[static_cast<std::size_t>(s)];
            std::set<int> &fwd = fwdReady[static_cast<std::size_t>(s)];
            int tid;
            if (!bwd.empty()) {
                tid = *bwd.begin();
                bwd.erase(bwd.begin());
            } else if (!fwd.empty()) {
                tid = *fwd.begin();
                fwd.erase(fwd.begin());
            } else {
                continue;
            }
            TaskState &task = tasks[static_cast<std::size_t>(tid)];
            task.start = t;
            task.end = t + task.cost;
            task.scheduled = true;
            running[static_cast<std::size_t>(s)] = tid;
            out.stageBusyTicks[static_cast<std::size_t>(s)] +=
                task.cost;
            out.makespan = std::max(out.makespan, task.end);
            out.spans.push_back(TraceRecord{
                task.start, task.end, s,
                isBackward(tid) ? TraceKind::Backward
                                : TraceKind::Forward,
                subnets[static_cast<std::size_t>(subnetOf(tid))].id(),
                "logical"});
            events.push(task.end);
        }
    }

    std::sort(out.spans.begin(), out.spans.end(),
              [](const TraceRecord &a, const TraceRecord &b) {
                  if (a.start != b.start)
                      return a.start < b.start;
                  if (a.stage != b.stage)
                      return a.stage < b.stage;
                  if (a.kind != b.kind)
                      return static_cast<int>(a.kind) <
                             static_cast<int>(b.kind);
                  return a.subnet < b.subnet;
              });
    std::sort(out.gateWaits.begin(), out.gateWaits.end(),
              [](const LogicalGateWait &a, const LogicalGateWait &b) {
                  if (a.stage != b.stage)
                      return a.stage < b.stage;
                  if (a.layerKey != b.layerKey)
                      return a.layerKey < b.layerKey;
                  return a.waiter < b.waiter;
              });
    return out;
}

} // namespace obs
} // namespace naspipe
