/**
 * @file
 * CspOracle — the determinism audit layer's runtime invariant
 * checker.
 *
 * CSP's reproducibility claim (Definition 1) rests on two invariants
 * the scheduler and the threaded executor must uphold for every
 * shared choice-block layer:
 *
 *  1. **Read freshness**: every READ by subnet i observes exactly the
 *     WRITEs of the activators with smaller sequence IDs — i.e. the
 *     write of the *largest smaller* sequence ID has landed, and no
 *     write of a larger ID has. Equivalently the layer's history is
 *     the strict R,W,R,W… sequence sequential training produces.
 *  2. **Commit monotonicity**: CommitGate commits extend each
 *     layer's causal chain by exactly one, in ascending sequence-ID
 *     order.
 *
 * The equivalence tests sample these invariants indirectly (hash
 * comparison); the oracle asserts them directly, so a violation
 * localizes to the first offending (layer, pair-of-sequence-IDs)
 * instead of a bitwise mismatch at the end of the run. It consumes
 * either a recorded AccessLog (post-run audit) or live CommitGate
 * events via the gate's onCommitEvent() observer hook, and renders a
 * human-readable report naming the layer, the stage, and the two
 * offending sequence IDs.
 */

#ifndef NASPIPE_VERIFY_CSP_ORACLE_H
#define NASPIPE_VERIFY_CSP_ORACLE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "supernet/layer.h"
#include "train/access_log.h"

namespace naspipe {

class CommitGate;

/** One violated CSP invariant. */
struct CspViolation {
    enum class Kind {
        ReadBeforeWrite,  ///< read missed a smaller activator's write
        ReadAfterFuture,  ///< read saw a larger activator's write
        WriteBeforeRead,  ///< write with no preceding read by writer
        WriteOrder,       ///< writes left ascending sequence order
        DuplicateRead,    ///< second read by the same subnet
        DuplicateWrite,   ///< second write by the same subnet
        CommitOrder,      ///< live commit left chain order
    };

    Kind kind = Kind::ReadBeforeWrite;
    LayerId layer;
    int stage = -1;       ///< stage of the offending access (-1 = ?)
    SubnetId first = -1;  ///< the two offending sequence IDs
    SubnetId second = -1;
    std::uint64_t orderFirst = 0;   ///< global log order (0 if live)
    std::uint64_t orderSecond = 0;

    /** Printable rule name ("read-before-write"). */
    const char *kindName() const;

    /** One-line human-readable description. */
    std::string describe() const;
};

/**
 * Audits access histories and commit streams against the CSP
 * invariants. Violations accumulate; ok() / report() summarize.
 * observeCommit() is thread-safe (workers call it concurrently);
 * the audit entry points are coordinator-side.
 */
class CspOracle
{
  public:
    /**
     * Audit one layer's access history (in recorded global order).
     * Appends any violations; returns true iff the layer is clean.
     */
    bool auditLayer(const LayerId &layer,
                    const std::vector<AccessRecord> &history);

    /**
     * Audit every touched layer of @p log. Returns true iff no layer
     * violates the read/write invariants. Aborts unless @p log keeps
     * history: a log without one must never audit clean.
     */
    bool auditLog(const AccessLog &log);

    /**
     * Live commit event (CommitGate observer signature): checks that
     * @p rank extends @p layerKey's chain by exactly one and that
     * committing sequence IDs ascend.
     */
    void observeCommit(std::uint64_t layerKey, SubnetId subnet,
                       std::size_t rank, int stage);

    /**
     * Install this oracle as @p gate's commit-event observer. The
     * gate must outlive neither — detach by destroying the gate or
     * overwriting its observer — and the oracle must outlive the run.
     */
    void attach(CommitGate &gate);

    /** True iff no violation has been recorded. */
    bool ok() const;

    /** All recorded violations in detection order. */
    std::vector<CspViolation> violations() const;

    /**
     * Multi-line human-readable report of every violation (empty
     * string when ok()).
     */
    std::string report() const;

    /** Layers audited via auditLayer()/auditLog(). */
    std::size_t auditedLayers() const { return _auditedLayers; }

    /** Access records audited via auditLayer()/auditLog(). */
    std::uint64_t auditedRecords() const { return _auditedRecords; }

    /** Live commits observed via observeCommit(). */
    std::uint64_t observedCommits() const;

    /** Drop all state (violations, chain cursors, counters). */
    void clear();

    /**
     * Drop only the live chain cursors, keeping violations and
     * counters. Call at each recovery epoch of the threaded executor
     * (RuntimeConfig::recoveryObserver): recovery recreates the
     * CommitGate, so every layer's chain legitimately restarts at
     * rank 0 and replayed commits would otherwise trip CommitOrder.
     */
    void resetLiveChains();

  private:
    void addViolation(CspViolation violation);

    /** Live per-layer commit cursor. */
    struct ChainCursor {
        std::size_t nextRank = 0;
        SubnetId lastSubnet = -1;
    };

    mutable RankedMutex _oracleMu{LockRank::VerifyOracle};
    std::vector<CspViolation> _violations;
    std::map<std::uint64_t, ChainCursor> _chains;
    std::size_t _auditedLayers = 0;
    std::uint64_t _auditedRecords = 0;
    std::uint64_t _observedCommits = 0;
};

} // namespace naspipe

#endif // NASPIPE_VERIFY_CSP_ORACLE_H
