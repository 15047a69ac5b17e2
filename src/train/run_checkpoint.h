/**
 * @file
 * Mid-run training checkpoint for fault recovery.
 *
 * A RunCheckpoint captures everything the pipeline runtime needs to
 * resume a partially trained supernet deterministically: the store's
 * weights (ParameterStore bytes), the access log, the per-subnet
 * losses and completion times observed so far, and the scheduler
 * frontier (the completed-subnet count). Checkpoints are only taken
 * at pipeline-drain barriers, where no subnet is in flight, so under
 * CSP the entire state is a pure function of (config, completed
 * count) — which is what makes a recovered run bitwise-identical to
 * an uninterrupted one.
 *
 * The file format mirrors the parameter store's: magic "NPRC",
 * format version, payload length, payload checksum, payload.
 * Version 3 checksums the payload with checksumBytes (common/rng.h)
 * and is otherwise laid out as version 2, whose checksum is byte
 * FNV-1a. Version 2 added the run's storage precision to the
 * identity fields, and its access-log section holds the per-layer
 * cursors plus, only for runs that opted into access history, the
 * full history. Version 1 and 2 files still load, verified with
 * FNV-1a: version 1 carries no precision (compatibility then does
 * not check it) and its log section is the full v1 history, from
 * which the cursors are rebuilt. load() parses a byte view in place
 * and never aborts the process — truncation, bit corruption,
 * trailing bytes, and version/shape mismatches all log a reason and
 * return false.
 * saveFileAtomic() writes via a temp file plus rename so a crash
 * mid-write never leaves a half-written checkpoint at the target
 * path.
 */

#ifndef NASPIPE_TRAIN_RUN_CHECKPOINT_H
#define NASPIPE_TRAIN_RUN_CHECKPOINT_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "tensor/kernels/precision.h"

namespace naspipe {

/** Full mid-run training state at a pipeline-drain barrier. */
struct RunCheckpoint {
    /** The format version save() writes. */
    static constexpr std::uint32_t kFormatVersion = 3;

    /**
     * The format version this checkpoint was read from. An older
     * checkpoint (version 1 carries no precision and a v1
     * accessLogBytes) is restored, never saved again as it is.
     */
    std::uint32_t formatVersion = kFormatVersion;

    /** @name Compatibility identity
     * A checkpoint resumes only a run with the same seed, space
     * shape, total subnet count (Definition 1's "same inputs") and
     * storage precision (each precision has its own trajectory).
     * @{ */
    std::uint64_t seed = 0;
    std::uint32_t spaceBlocks = 0;
    std::uint32_t spaceChoices = 0;
    /** Not recorded by version 1 files. */
    kernels::PrecisionMode precision = kernels::PrecisionMode::Fp32;
    std::uint64_t totalSubnets = 0;
    /** @} */

    /** Scheduler frontier: subnets 0..completed-1 are done. */
    std::uint64_t completed = 0;

    /** Simulated wall-clock seconds at the drain barrier. */
    double simSeconds = 0.0;

    /** Total GPU-busy seconds accumulated at the barrier. */
    double busySeconds = 0.0;

    /** How many checkpoints the producing run had written. */
    std::uint64_t checkpointsWritten = 0;

    /** Per-subnet final losses, indexed by subnet ID (size == completed). */
    std::vector<double> losses;

    /** Per-subnet completion times in seconds, indexed by subnet ID. */
    std::vector<double> completionSec;

    /** ParameterStore::serialize() bytes of the drained store. */
    std::string storeBytes;

    /**
     * AccessLog::serialize() bytes of the store's access log (the v1
     * history section when formatVersion is 1).
     */
    std::string accessLogBytes;

    /** The two blobs of a checkpoint, as views into its bytes. */
    struct Sections {
        std::string_view store, accessLog;
    };

    /**
     * The whole checkpoint in one string of exactly its size,
     * written and checksummed in place (the store blob is copied
     * once).
     */
    std::string serialize() const;

    /** Write serialize() to a stream; returns false on I/O failure. */
    bool save(std::ostream &out) const;

    /**
     * Restore from @p bytes, exactly one serialize() output; a length
     * field past its end fails at once. Logs the reason and returns
     * false on bad input; this object is unchanged unless it returns
     * true. With @p inPlace the two blobs are not copied: they stay
     * empty here and @p inPlace views them in @p bytes.
     */
    bool load(std::string_view bytes, Sections *inPlace = nullptr);

    /** writeFileAtomic() serialize() to @p path; false on failure. */
    bool saveFileAtomic(const std::string &path) const;

    /** load() a whole file; false (with a logged reason) on failure. */
    bool loadFile(const std::string &path);
};

} // namespace naspipe

#endif // NASPIPE_TRAIN_RUN_CHECKPOINT_H
