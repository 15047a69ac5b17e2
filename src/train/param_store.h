/**
 * @file
 * Shared parameter store: the supernet's weights.
 *
 * One LayerParams per candidate layer, lazily initialized from a pure
 * function of (seed, block, choice), with per-layer version counters
 * and the global access log. All systems — CSP, BSP, ASP — train
 * against the same store; what differs is *when* each system reads
 * and writes, which is precisely what reproducibility is about.
 *
 * The layers live in a dense table indexed by block *
 * choicesPerBlock + choice, which is also LayerId::key() order, so
 * every walk over the table (serialize, touchedHash, supernetHash)
 * visits layers in key order.
 */

#ifndef NASPIPE_TRAIN_PARAM_STORE_H
#define NASPIPE_TRAIN_PARAM_STORE_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "supernet/search_space.h"
#include "tensor/kernels/precision.h"
#include "tensor/layer_math.h"
#include "train/access_log.h"

namespace naspipe {

/**
 * The supernet's shared weights plus access bookkeeping.
 */
class ParameterStore
{
  public:
    /**
     * A value that changes whenever a layer's parameters may have:
     * load() bumps the epoch, write() bumps the layer's version. A
     * version alone can repeat — load() restores old ones — so the
     * pair is what never repeats for one layer of one store.
     */
    struct LayerStamp {
        std::uint64_t epoch = 0;
        std::uint64_t version = 0;

        bool operator==(const LayerStamp &) const = default;
    };

    /**
     * @param space the search space (defines the layer universe)
     * @param seed initialization seed (the "fixed random seeds" of
     *        §4.1; two stores with the same seed start bitwise equal)
     * @param precision storage precision: under Fp16Rne every
     *        materialized initial value is rounded through binary16,
     *        so fp16 runs start from bitwise-specified fp16 weights
     */
    ParameterStore(const SearchSpace &space, std::uint64_t seed,
                   kernels::PrecisionMode precision =
                       kernels::PrecisionMode::Fp32);

    const SearchSpace &space() const { return _space; }
    std::uint64_t seed() const { return _seed; }
    kernels::PrecisionMode precision() const { return _precision; }

    /**
     * Read access for a forward pass: returns the layer's current
     * parameters and logs a READ by @p reader (@p stage is carried
     * into the log record for violation localization; -1 = unknown).
     */
    const LayerParams &read(const LayerId &layer, SubnetId reader,
                            int stage = -1);

    /**
     * Write access for a backward pass: mutable parameters, a WRITE
     * log record by @p writer, and a version bump.
     */
    LayerParams &write(const LayerId &layer, SubnetId writer,
                       int stage = -1);

    /** Peek without logging (recompute backward, tests). */
    const LayerParams &peek(const LayerId &layer);

    /**
     * Peek that never materializes: a plain lookup of a layer that
     * must already exist. It leaves the map structure untouched, so
     * any number of threads may call it while no thread mutates the
     * store (the post-run search's candidate fan-out).
     */
    const LayerParams &find(const LayerId &layer) const;

    /** Materialize every parameterized layer of @p subnet. */
    void materializeLayers(const Subnet &subnet);

    /**
     * Materialize every layer of the space up front. The threaded
     * executor calls this before starting workers so the hot path
     * never initializes a layer: read()/write() only index existing
     * slots, and all cross-thread ordering is the CommitGate's job.
     * load() never un-materializes a slot, so a restored store stays
     * fully materialized.
     */
    void materializeAll();

    /** Number of WRITEs applied to @p layer so far. */
    std::uint64_t version(const LayerId &layer) const
    {
        return _versions[slot(layer)];
    }

    /** The layer's current (load epoch, version) stamp. */
    LayerStamp stamp(const LayerId &layer) const
    {
        return LayerStamp{_epoch, _versions[slot(layer)]};
    }

    /** The global access log (Table 4 / sequential-equivalence). */
    AccessLog &accessLog() { return _log; }
    const AccessLog &accessLog() const { return _log; }

    /**
     * Deterministic fingerprint of the *entire* supernet's weights
     * (untouched layers included at their initial values): the
     * "training result (parameter weights of all layers)" Definition
     * 1 compares. Forces initialization of every layer.
     */
    std::uint64_t supernetHash();

    /** Fingerprint over only the layers touched so far (cheap). */
    std::uint64_t touchedHash() const;

    /** Number of materialized layers. */
    std::size_t materializedLayers() const { return _materialized; }

    /** Whether every layer of the space is materialized. */
    bool fullyMaterialized() const
    {
        return _materialized == _params.size();
    }

    /** @name Checkpointing
     * Persist the trained supernet for post-training analysis (the
     * GreedyNAS-style trial inspection of §2.1), transfer to another
     * process, or mid-run fault recovery. Format v3: a fixed 48-byte
     * header (magic "NASP", format version, space shape, init seed,
     * layer count, payload length, payload checksum) followed by a
     * payload of per-layer key + version counter + raw fp32 bytes;
     * load restores them bitwise (untouched layers re-materialize
     * from the seed, so a loaded store is indistinguishable from the
     * original). A run checkpoint embeds these bytes as its store
     * section. Version 3 checksums the payload with checksumBytes;
     * version 2, which is otherwise identical, with byte FNV-1a
     * (hashBytes), and still loads.
     * @{ */
    /**
     * The whole checkpoint in one string of exactly its size
     * (header + materialized layers x (16 + 2 x kLayerDim x 4) bytes),
     * written and checksummed in place.
     */
    std::string serialize() const;

    /** writeFileAtomic() serialize() to @p path; false on failure. */
    bool saveFile(const std::string &path) const;

    /**
     * Restore from @p bytes, exactly one serialize() output. Never
     * aborts the process: a truncated or overlong view, a corrupted
     * byte (checksum mismatch), an unknown format version, a
     * space-shape/seed mismatch, or a layer outside the space all log
     * the reason and return false, with the store untouched: it is
     * only mutated once every check, every layer key included, passed.
     * @return true iff the store now matches the checkpoint bitwise.
     */
    bool load(std::string_view bytes);

    /** load() a whole file; false (with a logged reason) on failure. */
    bool loadFile(const std::string &path);
    /** @} */

  private:
    /** Table index of @p layer (asserts it lies in the space). */
    std::size_t slot(const LayerId &layer) const
    {
        NASPIPE_ASSERT(static_cast<int>(layer.block) <
                               _space.numBlocks() &&
                           static_cast<int>(layer.choice) <
                               _space.choicesPerBlock(),
                       "layer outside the space");
        return static_cast<std::size_t>(layer.block) *
                   static_cast<std::size_t>(_space.choicesPerBlock()) +
               layer.choice;
    }

    /** The layer of table index @p index. */
    LayerId layerAt(std::size_t index) const;

    LayerParams &materialize(const LayerId &layer);

    const SearchSpace &_space;
    std::uint64_t _seed;
    kernels::PrecisionMode _precision;
    /// Dense layer table; an empty slot is not materialized yet.
    std::vector<std::optional<LayerParams>> _params;
    std::vector<std::uint64_t> _versions;  ///< parallel to _params
    std::size_t _materialized = 0;         ///< filled slots
    std::uint64_t _epoch = 0;              ///< load() count
    AccessLog _log;
};

} // namespace naspipe

#endif // NASPIPE_TRAIN_PARAM_STORE_H
