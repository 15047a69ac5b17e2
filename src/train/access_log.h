/**
 * @file
 * Per-layer parameter access log.
 *
 * Every READ (forward pass) and WRITE (backward pass / optimizer
 * step) of a candidate layer's parameters advances that layer's
 * *cursor*: the last writer, the pending reader, and a latched
 * violation flag. Definition 1's sequential equivalence — the
 * layer's accesses form R,W pairs in strictly ascending subnet
 * order, exactly what training the subnets one at a time produces —
 * is decided on the stream, so the verdict costs O(layers) state no
 * matter how long the run is.
 *
 * The full per-layer history (Table 4 is a rendering of it for one
 * layer; the CspOracle's post-run audit replays it) is opt-in: a log
 * keeps it only after keepHistory(true). Asking a log without
 * history for one aborts, so a missing history can never audit
 * clean.
 *
 * The cursors live in a dense table indexed like ParameterStore's
 * layer table (block * choicesPerBlock + choice, which is also
 * LayerId::key() order). record() takes no lock: the commit gate
 * already orders each layer's accesses, and the layer's parameters
 * are read and written under that same order. The one cross-layer
 * datum, the global record counter, is atomic.
 */

#ifndef NASPIPE_TRAIN_ACCESS_LOG_H
#define NASPIPE_TRAIN_ACCESS_LOG_H

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/byte_reader.h"
#include "supernet/layer.h"
#include "supernet/subnet.h"

namespace naspipe {

/** Kind of parameter access. */
enum class AccessKind {
    Read,   ///< forward pass
    Write,  ///< backward pass with optimizer step
};

/** One access record (kept only by a log with history). */
struct AccessRecord {
    std::uint64_t order = 0;  ///< global monotonic sequence
    SubnetId subnet = -1;
    AccessKind kind = AccessKind::Read;
    /**
     * Pipeline stage that issued the access, or -1 when the caller
     * has no stage notion (sequential reference runs, deferred bulk
     * flushes). Diagnostic only — the CspOracle uses it to localize
     * violation reports — and deliberately *not* serialized.
     */
    int stage = -1;
};

/**
 * Whether @p history is *sequentially equivalent*: R,W pairs in
 * strictly ascending subnet order. The reference verdict the
 * streamed cursor must agree with.
 */
bool sequentiallyEquivalent(const std::vector<AccessRecord> &history);

/**
 * Access log over the layers of one search space.
 */
class AccessLog
{
  public:
    /** A log over a @p numBlocks x @p choicesPerBlock layer table. */
    AccessLog(int numBlocks, int choicesPerBlock,
              bool keepHistory = false);

    /** Enable/disable recording (on by default). */
    void enabled(bool on) { _enabled = on; }
    bool enabled() const { return _enabled; }

    /**
     * Keep (or stop keeping) the full per-layer history. Only an
     * empty log may switch.
     */
    void keepHistory(bool on);
    bool keepsHistory() const { return _keepHistory; }

    /** Record an access to @p layer by @p subnet on @p stage. */
    void record(const LayerId &layer, SubnetId subnet, AccessKind kind,
                int stage = -1);

    /**
     * The streamed verdict for @p layer: no access so far broke the
     * R,W,R,W… ascending order and no read is left without its
     * write.
     */
    bool sequentiallyEquivalent(const LayerId &layer) const;

    /** Layers whose streamed verdict is false. */
    int violatedLayers() const;

    /** True if every layer is sequentially equivalent. */
    bool allSequentiallyEquivalent() const
    {
        return violatedLayers() == 0;
    }

    /** All layers with at least one access, in key order. */
    std::vector<LayerId> touchedLayers() const;

    /** Total records over all layers. */
    std::uint64_t totalRecords() const { return _records.load(); }

    /** @name History (aborts unless keepsHistory())
     * @{ */
    /**
     * Abort the process, naming @p query, unless this log keeps
     * history. Every history query calls it first.
     */
    void requireHistory(const char *query) const;

    /** Accesses of one layer in global order. */
    const std::vector<AccessRecord> &layerHistory(
        const LayerId &layer) const;

    /**
     * Table 4 rendering for one layer: "2F-2B-5F-5B-7F-7B" (nF =
     * read by subnet n's forward, nB = written by its backward).
     */
    std::string renderOrder(const LayerId &layer) const;
    /** @} */

    /**
     * The log as an NPRC v2/v3 section, in one string of exactly its
     * size: the record counter, the table shape, a flags word, one
     * fixed-size cursor per layer of the table, and — only when this
     * log keeps history — every touched layer's records in the v1
     * history layout.
     */
    std::string serialize() const;

    /**
     * Replace this log's contents with @p bytes, which must hold
     * exactly one section as serialize() wrote it. Returns false
     * (leaving the log cleared) on truncated, overlong or malformed
     * input, on a shape other than this log's, on cursors that
     * disagree with the history they were saved with, and when this
     * log keeps history but the section has none; never aborts the
     * process.
     */
    bool loadFrom(std::string_view bytes);

    /**
     * As loadFrom(), for the v1 section (counter plus every touched
     * layer's full history): the cursors are rebuilt by replaying
     * the history, which is kept when this log keeps history.
     */
    bool loadV1From(std::string_view bytes);

    void clear();

  private:
    /** One layer's position in the R,W,R,W… order. */
    struct Cursor {
        SubnetId lastWriter = -1;
        SubnetId pendingReader = -1;
        std::uint8_t state = 0;  ///< kTouched | kPending | kViolated

        void advance(SubnetId subnet, AccessKind kind);
        bool operator==(const Cursor &) const = default;
    };

    std::size_t slot(const LayerId &layer) const;
    LayerId layerAt(std::size_t index) const;
    /** The cursor @p history leaves behind. */
    static Cursor replay(const std::vector<AccessRecord> &history);
    /**
     * Parse a history section (the v1 layout: touched-layer count,
     * then per layer its key, record count and records, each order
     * below @p total) into a table parallel to the cursors.
     */
    bool readHistory(ByteReader &in, std::uint64_t total,
                     std::vector<std::vector<AccessRecord>> &history)
        const;

    int _numBlocks;
    int _choicesPerBlock;
    bool _enabled = true;
    bool _keepHistory = false;
    std::atomic<std::uint64_t> _records{0};
    std::vector<Cursor> _cursors;
    /// Parallel to _cursors when _keepHistory, else empty.
    std::vector<std::vector<AccessRecord>> _history;
};

} // namespace naspipe

#endif // NASPIPE_TRAIN_ACCESS_LOG_H
