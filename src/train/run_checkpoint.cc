#include "train/run_checkpoint.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/byte_writer.h"
#include "common/logging.h"
#include "common/rng.h"

namespace naspipe {

namespace {

constexpr std::uint32_t kRunCheckpointMagic = 0x4e505243;  // "NPRC"

/// magic, version, payload bytes
constexpr std::size_t kChecksumOffset = 4 + 4 + 8;
constexpr std::size_t kHeaderBytes = kChecksumOffset + 8;

/**
 * The payload checksum of format @p version: byte FNV-1a up to
 * version 2, the word-parallel checksum from version 3 on.
 */
std::uint64_t
payloadChecksum(std::uint32_t version, const std::string &bytes)
{
    return version < 3 ? hashBytes(bytes.data(), bytes.size())
                       : checksumBytes(bytes.data(), bytes.size());
}

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

/** Bounds-checked cursor over an in-memory payload. */
class Cursor
{
  public:
    explicit Cursor(const std::string &bytes) : _bytes(bytes) {}

    template <typename T>
    bool
    pod(T &value)
    {
        return raw(&value, sizeof(T));
    }

    bool
    blob(std::string &out)
    {
        std::uint64_t size = 0;
        if (!pod(size) || remaining() < size)
            return false;
        out.assign(_bytes.data() + _off,
                   static_cast<std::size_t>(size));
        _off += static_cast<std::size_t>(size);
        return true;
    }

    bool
    doubles(std::vector<double> &out)
    {
        std::uint64_t count = 0;
        if (!pod(count) || remaining() / sizeof(double) < count)
            return false;
        out.resize(static_cast<std::size_t>(count));
        return raw(out.data(), out.size() * sizeof(double));
    }

    bool exhausted() const { return _off == _bytes.size(); }

  private:
    std::uint64_t remaining() const { return _bytes.size() - _off; }

    bool
    raw(void *dst, std::size_t n)
    {
        if (_bytes.size() - _off < n)
            return false;
        if (n == 0)
            return true;  // dst may be an empty vector's null data()
        std::memcpy(dst, _bytes.data() + _off, n);
        _off += n;
        return true;
    }

    const std::string &_bytes;
    std::size_t _off = 0;
};

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
RunCheckpoint::load(std::istream &in)
{
    std::uint32_t magic = 0, version = 0;
    std::uint64_t payloadBytes = 0, checksum = 0;
    {
        char header[kHeaderBytes];
        in.read(header, sizeof(header));
        if (in.gcount() != static_cast<std::streamsize>(
                               sizeof(header))) {
            warn("run checkpoint: truncated header");
            return false;
        }
        std::size_t off = 0;
        auto field = [&](auto &value) {
            std::memcpy(&value, header + off, sizeof(value));
            off += sizeof(value);
        };
        field(magic);
        field(version);
        field(payloadBytes);
        field(checksum);
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

    // Chunked read so a corrupted length field fails at end-of-stream
    // instead of attempting one huge allocation.
    std::string bytes;
    {
        std::uint64_t remaining = payloadBytes;
        char buf[65536];
        while (remaining > 0) {
            auto want = static_cast<std::streamsize>(
                remaining < sizeof(buf) ? remaining : sizeof(buf));
            in.read(buf, want);
            std::streamsize got = in.gcount();
            if (got <= 0) {
                warn("run checkpoint: payload truncated (",
                     bytes.size(), " of ", payloadBytes, " bytes)");
                return false;
            }
            bytes.append(buf, static_cast<std::size_t>(got));
            remaining -= static_cast<std::uint64_t>(got);
        }
    }
    if (payloadChecksum(version, bytes) != checksum) {
        warn("run checkpoint: payload checksum mismatch");
        return false;
    }

    RunCheckpoint parsed;
    parsed.formatVersion = version;
    Cursor cur(bytes);
    std::uint32_t precision = 0;
    if (!cur.pod(parsed.seed) || !cur.pod(parsed.spaceBlocks) ||
        !cur.pod(parsed.spaceChoices) ||
        (version >= 2 && !cur.pod(precision)) ||
        precision > static_cast<std::uint32_t>(
                        kernels::PrecisionMode::Fp16Rne) ||
        !cur.pod(parsed.totalSubnets) || !cur.pod(parsed.completed) ||
        !cur.pod(parsed.simSeconds) || !cur.pod(parsed.busySeconds) ||
        !cur.pod(parsed.checkpointsWritten) ||
        !cur.doubles(parsed.losses) ||
        !cur.doubles(parsed.completionSec) ||
        !cur.blob(parsed.storeBytes) ||
        !cur.blob(parsed.accessLogBytes) || !cur.exhausted()) {
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
    *this = std::move(parsed);
    return true;
}

bool
RunCheckpoint::saveFileAtomic(const std::string &path) const
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        bool ok = out && save(out);
        out.close();  // the final flush can fail too (disk full)
        if (!ok || out.fail()) {
            warn("cannot write run checkpoint to ", tmp);
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("cannot rename ", tmp, " to ", path);
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
RunCheckpoint::loadFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        warn("cannot open run checkpoint file ", path);
        return false;
    }
    return load(in);
}

} // namespace naspipe
