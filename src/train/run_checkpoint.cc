#include "train/run_checkpoint.h"

#include <cstring>
#include <ostream>
#include <utility>

#include "common/byte_reader.h"
#include "common/byte_writer.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "common/rng.h"

namespace naspipe {

namespace {

constexpr std::uint32_t kRunCheckpointMagic = 0x4e505243;  // "NPRC"

/// magic, version, payload bytes
constexpr std::size_t kChecksumOffset = 4 + 4 + 8;
constexpr std::size_t kHeaderBytes = kChecksumOffset + 8;

void
writeBlob(ByteWriter &w, const std::string &bytes)
{
    w.pod(static_cast<std::uint64_t>(bytes.size()));
    w.raw(bytes.data(), bytes.size());
}

void
writeDoubles(ByteWriter &w, const std::vector<double> &values)
{
    w.pod(static_cast<std::uint64_t>(values.size()));
    w.raw(values.data(), values.size() * sizeof(double));
}

bool
readDoubles(ByteReader &in, std::vector<double> &out)
{
    std::uint64_t count = 0;
    if (!in.pod(count) || in.rest.size() / sizeof(double) < count)
        return false;
    out.resize(static_cast<std::size_t>(count));
    return in.raw(out.data(), out.size() * sizeof(double));
}

} // namespace

std::string
RunCheckpoint::serialize() const
{
    NASPIPE_ASSERT(formatVersion == kFormatVersion,
                   "a version ", formatVersion,
                   " run checkpoint is restored, not saved again");
    // seed .. checkpointsWritten, then four length-prefixed sections
    const std::size_t payloadBytes =
        8 + 4 + 4 + 4 + 8 + 8 + 8 + 8 + 8 +
        (8 + losses.size() * sizeof(double)) +
        (8 + completionSec.size() * sizeof(double)) +
        (8 + storeBytes.size()) + (8 + accessLogBytes.size());
    std::string out(kHeaderBytes + payloadBytes, '\0');
    ByteWriter w{out.data()};
    w.pod(kRunCheckpointMagic);
    w.pod(kFormatVersion);
    w.pod(static_cast<std::uint64_t>(payloadBytes));
    w.pod(std::uint64_t{0});  // the checksum, patched below
    w.pod(seed);
    w.pod(spaceBlocks);
    w.pod(spaceChoices);
    w.pod(static_cast<std::uint32_t>(precision));
    w.pod(totalSubnets);
    w.pod(completed);
    w.pod(simSeconds);
    w.pod(busySeconds);
    w.pod(checkpointsWritten);
    writeDoubles(w, losses);
    writeDoubles(w, completionSec);
    writeBlob(w, storeBytes);
    writeBlob(w, accessLogBytes);
    NASPIPE_ASSERT(w.at == out.data() + out.size(),
                   "run checkpoint size mismatch");
    const std::uint64_t checksum =
        checksumBytes(out.data() + kHeaderBytes, payloadBytes);
    std::memcpy(out.data() + kChecksumOffset, &checksum,
                sizeof(checksum));
    return out;
}

bool
RunCheckpoint::save(std::ostream &out) const
{
    const std::string bytes = serialize();
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(out);
}

bool
RunCheckpoint::load(std::string_view bytes, Sections *inPlace)
{
    ByteReader in{bytes};
    std::uint32_t magic = 0, version = 0;
    std::uint64_t payloadBytes = 0, checksum = 0;
    if (!in.pod(magic) || !in.pod(version) || !in.pod(payloadBytes) ||
        !in.pod(checksum)) {
        warn("run checkpoint: truncated header");
        return false;
    }
    if (magic != kRunCheckpointMagic) {
        warn("run checkpoint: bad magic ", magic,
             " (not an NPRC checkpoint)");
        return false;
    }
    if (version < 1 || version > kFormatVersion) {
        warn("run checkpoint: unsupported format version ", version,
             " (this build reads versions 1 to ", kFormatVersion, ")");
        return false;
    }
    const std::string_view payload = in.rest;
    if (payload.size() != payloadBytes) {
        warn("run checkpoint: ", payload.size(), " payload bytes, the ",
             "header says ", payloadBytes);
        return false;
    }
    if (payloadChecksum(version, payload.data(), payload.size()) !=
        checksum) {
        warn("run checkpoint: payload checksum mismatch");
        return false;
    }

    RunCheckpoint parsed;
    parsed.formatVersion = version;
    ByteReader cur{payload};
    std::uint32_t precision = 0;
    Sections sections;
    if (!cur.pod(parsed.seed) || !cur.pod(parsed.spaceBlocks) ||
        !cur.pod(parsed.spaceChoices) ||
        (version >= 2 && !cur.pod(precision)) ||
        precision > static_cast<std::uint32_t>(
                        kernels::PrecisionMode::Fp16Rne) ||
        !cur.pod(parsed.totalSubnets) || !cur.pod(parsed.completed) ||
        !cur.pod(parsed.simSeconds) || !cur.pod(parsed.busySeconds) ||
        !cur.pod(parsed.checkpointsWritten) ||
        !readDoubles(cur, parsed.losses) ||
        !readDoubles(cur, parsed.completionSec) ||
        !cur.section(sections.store) ||
        !cur.section(sections.accessLog) || !cur.exhausted()) {
        warn("run checkpoint: malformed payload");
        return false;
    }
    parsed.precision = static_cast<kernels::PrecisionMode>(precision);
    if (parsed.completed > parsed.totalSubnets ||
        parsed.losses.size() != parsed.completed ||
        parsed.completionSec.size() != parsed.completed) {
        warn("run checkpoint: inconsistent frontier (completed ",
             parsed.completed, ", losses ", parsed.losses.size(),
             ", completions ", parsed.completionSec.size(),
             ", total ", parsed.totalSubnets, ")");
        return false;
    }
    if (inPlace) {
        *inPlace = sections;
    } else {
        parsed.storeBytes.assign(sections.store);
        parsed.accessLogBytes.assign(sections.accessLog);
    }
    *this = std::move(parsed);
    return true;
}

bool
RunCheckpoint::saveFileAtomic(const std::string &path) const
{
    return writeFileAtomic(path, serialize());
}

bool
RunCheckpoint::loadFile(const std::string &path)
{
    std::string bytes;
    return readFile(path, bytes) && load(bytes);
}

} // namespace naspipe
