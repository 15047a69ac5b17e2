/**
 * @file
 * Mid-run training checkpoint for fault recovery.
 *
 * A RunCheckpoint captures everything the pipeline runtime needs to
 * resume a partially trained supernet deterministically: the store's
 * weights (ParameterStore v2 stream), the access log, the per-subnet
 * losses and completion times observed so far, and the scheduler
 * frontier (the completed-subnet count). Checkpoints are only taken
 * at pipeline-drain barriers, where no subnet is in flight, so under
 * CSP the entire state is a pure function of (config, completed
 * count) — which is what makes a recovered run bitwise-identical to
 * an uninterrupted one.
 *
 * The file format mirrors the parameter store's: magic "NPRC",
 * format version, payload length, FNV-1a payload checksum, payload.
 * Version 2 adds the run's storage precision to the identity fields,
 * and its access-log section holds the per-layer cursors plus, only
 * for runs that opted into access history, the full history. Version
 * 1 files still load: they carry no precision (compatibility then
 * does not check it) and their log section is the full v1 history,
 * from which the cursors are rebuilt. Loading never aborts the
 * process — truncation, bit corruption, and version/shape mismatches
 * all log a reason and return false.
 * saveFileAtomic() writes via a temp file plus rename so a crash
 * mid-write never leaves a half-written checkpoint at the target
 * path.
 */

#ifndef NASPIPE_TRAIN_RUN_CHECKPOINT_H
#define NASPIPE_TRAIN_RUN_CHECKPOINT_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "tensor/kernels/precision.h"

namespace naspipe {

/** Full mid-run training state at a pipeline-drain barrier. */
struct RunCheckpoint {
    /** The format version save() writes. */
    static constexpr std::uint32_t kFormatVersion = 2;

    /**
     * The format version this checkpoint was read from. A version 1
     * checkpoint carries no precision and a v1 accessLogBytes; it is
     * restored, never saved again as it is.
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

    /** ParameterStore::save() stream of the drained store. */
    std::string storeBytes;

    /**
     * AccessLog::saveTo() stream of the store's access log (the v1
     * history stream when formatVersion is 1).
     */
    std::string accessLogBytes;

    /** Serialize to a stream; returns false on I/O failure. */
    bool save(std::ostream &out) const;

    /**
     * Restore from a stream written by save(). Logs the reason and
     * returns false on truncated, corrupted, or mismatched-version
     * input; this object is unchanged unless it returns true.
     */
    bool load(std::istream &in);

    /**
     * Write to @p path atomically: serialize to "<path>.tmp", then
     * rename over @p path. Returns false (and logs) on any failure.
     */
    bool saveFileAtomic(const std::string &path) const;

    /** Read from a file; false (with a logged reason) on failure. */
    bool loadFile(const std::string &path);
};

} // namespace naspipe

#endif // NASPIPE_TRAIN_RUN_CHECKPOINT_H
