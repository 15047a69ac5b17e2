/**
 * @file
 * Sequential replay of a run's subnet stream on the calling thread,
 * through the library's public layers: a TrainingSession drives the
 * run through a synchronous ExecutionBackend, the backend calls the
 * NumericExecutor stage by stage, and a benchmark-owned CommitGate
 * is fed the same layer keys the threaded executor's gate sees.
 *
 * Untraced, the replay is the correctness reference: under CSP the
 * threaded run must land on exactly these bits. Traced, it is the
 * per-layer ledger: every call into a layer is wrapped in a span
 * (name, start, end, parent), kept in memory and written at exit.
 */

#ifndef NASPIPE_PERFBENCH_REPLAY_H
#define NASPIPE_PERFBENCH_REPLAY_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runtime/pipeline_runtime.h"
#include "supernet/search_space.h"

namespace perfbench {

/** One timed interval; parent indexes the enclosing span (-1: root). */
struct Span {
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
};

/** In-memory span recorder; a null Tracer* records nothing. */
class Tracer
{
  public:
    /** RAII span: opened at construction, closed at destruction. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *_tracer;
        int _index = -1;
    };

    /** Per-name aggregate: self time excludes child spans. */
    struct Total {
        double selfSec = 0.0;
        double totalSec = 0.0;
        std::uint64_t count = 0;
    };

    explicit Tracer(std::size_t reserve) { _spans.reserve(reserve); }

    std::size_t capacity() const { return _spans.capacity(); }

    std::map<std::string, Total> totals() const;

    /** Write every span as Chrome trace-event JSON. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::vector<Span> _spans;
    int _open = -1;
};

/** What a replay produced, for checking and for the ledger. */
struct ReplayOutcome {
    std::uint64_t hash = 0;
    int violations = 0;
    double finalLoss = 0.0;  ///< trailingLoss() of the run
    int subnets = 0;
    int ckptCount = 0;
    std::uint64_t lastCkptBytes = 0;  ///< last committed checkpoint
    std::uint64_t endCkptBytes = 0;   ///< final drained state
    std::uint64_t storeSaveBytes = 0;
    std::uint64_t logSaveBytes = 0;
    std::uint64_t accessRecords = 0;
    std::uint64_t gateOps = 0;
    double wall = 0.0;  ///< initRun through collect
};

/**
 * Replay @p config's run sequentially. Fault plans are ignored: the
 * replay is the fault-free reference.
 */
ReplayOutcome replaySequential(const naspipe::SearchSpace &space,
                               naspipe::RuntimeConfig config,
                               Tracer *tracer);

/**
 * Mean training loss over the last quarter of a run's subnets, by
 * sequence ID: deterministic like RunMetrics::finalLoss (a 16-subnet
 * window), but wide enough to move little from seed to seed.
 */
double trailingLoss(const std::map<naspipe::SubnetId, float> &losses);

/** Subnet choice vectors of a run, in sequence order. */
using Stream = std::vector<std::vector<std::uint16_t>>;

/** @p config with its sampler replaced by a fixed @p stream. */
naspipe::RuntimeConfig withStream(naspipe::RuntimeConfig config,
                                  Stream stream);

} // namespace perfbench

#endif // NASPIPE_PERFBENCH_REPLAY_H
