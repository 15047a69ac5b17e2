#include "train/param_store.h"

#include <cstring>
#include <fstream>

#include "common/byte_writer.h"
#include "common/logging.h"
#include "common/rng.h"

namespace naspipe {

namespace {

constexpr std::uint32_t kCheckpointMagic = 0x4e415350;  // "NASP"
constexpr std::uint32_t kCheckpointVersion = 3;

/// magic, version, blocks, choices, seed, layer count, payload bytes
constexpr std::size_t kChecksumOffset = 4 + 4 + 4 + 4 + 8 + 8 + 8;
constexpr std::size_t kHeaderBytes = kChecksumOffset + 8;
/// key, version, weight, bias
constexpr std::size_t kLayerBytes = 8 + 8 + 2 * kLayerDim * sizeof(float);

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

template <typename T>
bool
readPod(std::istream &in, T &value)
{
    in.read(reinterpret_cast<char *>(&value), sizeof(T));
    return static_cast<bool>(in);
}

} // namespace

ParameterStore::ParameterStore(const SearchSpace &space,
                               std::uint64_t seed,
                               kernels::PrecisionMode precision)
    : _space(space), _seed(seed), _precision(precision),
      _params(static_cast<std::size_t>(space.numBlocks()) *
              static_cast<std::size_t>(space.choicesPerBlock())),
      _versions(_params.size(), 0),
      _log(space.numBlocks(), space.choicesPerBlock())
{
}

LayerId
ParameterStore::layerAt(std::size_t index) const
{
    const auto choices =
        static_cast<std::size_t>(_space.choicesPerBlock());
    return LayerId{static_cast<std::uint32_t>(index / choices),
                   static_cast<std::uint32_t>(index % choices)};
}

LayerParams &
ParameterStore::materialize(const LayerId &layer)
{
    std::optional<LayerParams> &params = _params[slot(layer)];
    if (!params) {
        LayerParams &fresh = params.emplace();
        initLayerParams(fresh, _seed, layer.block, layer.choice);
        // Storage rounding: fp16 runs start from fp16 weights.
        kernels::quantizeInPlace(_precision,
                                 fresh.weight.data().data(),
                                 fresh.weight.size());
        kernels::quantizeInPlace(_precision,
                                 fresh.bias.data().data(),
                                 fresh.bias.size());
        _materialized++;
    }
    return *params;
}

const LayerParams &
ParameterStore::read(const LayerId &layer, SubnetId reader, int stage)
{
    _log.record(layer, reader, AccessKind::Read, stage);
    return materialize(layer);
}

LayerParams &
ParameterStore::write(const LayerId &layer, SubnetId writer, int stage)
{
    _log.record(layer, writer, AccessKind::Write, stage);
    _versions[slot(layer)]++;
    return materialize(layer);
}

const LayerParams &
ParameterStore::peek(const LayerId &layer)
{
    return materialize(layer);
}

const LayerParams &
ParameterStore::find(const LayerId &layer) const
{
    const std::optional<LayerParams> &params = _params[slot(layer)];
    NASPIPE_ASSERT(params.has_value(), "layer (", layer.block, ",",
                   layer.choice, ") read before it was materialized");
    return *params;
}

void
ParameterStore::materializeLayers(const Subnet &subnet)
{
    for (int b = 0; b < subnet.size(); b++) {
        if (_space.parameterized(b, subnet.choice(b)))
            materialize(subnet.layer(b));
    }
}

void
ParameterStore::materializeAll()
{
    for (std::size_t i = 0; i < _params.size(); i++)
        materialize(layerAt(i));
}

std::uint64_t
ParameterStore::supernetHash()
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < _params.size(); i++) {
        std::uint64_t h = materialize(layerAt(i)).contentHash();
        hash ^= h + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
    }
    return hash;
}

std::string
ParameterStore::serialize() const
{
    const std::size_t payloadBytes = _materialized * kLayerBytes;
    std::string out(kHeaderBytes + payloadBytes, '\0');
    ByteWriter w{out.data()};
    w.pod(kCheckpointMagic);
    w.pod(kCheckpointVersion);
    w.pod(static_cast<std::uint32_t>(_space.numBlocks()));
    w.pod(static_cast<std::uint32_t>(_space.choicesPerBlock()));
    w.pod(_seed);
    w.pod(static_cast<std::uint64_t>(_materialized));
    w.pod(static_cast<std::uint64_t>(payloadBytes));
    w.pod(std::uint64_t{0});  // the checksum, patched below
    for (std::size_t i = 0; i < _params.size(); i++) {
        if (!_params[i])
            continue;
        const LayerParams &params = *_params[i];
        NASPIPE_ASSERT(params.weight.size() == kLayerDim &&
                           params.bias.size() == kLayerDim,
                       "layer ", i, " is not kLayerDim wide");
        w.pod(layerAt(i).key());
        w.pod(_versions[i]);
        w.raw(params.weight.data().data(), kLayerDim * sizeof(float));
        w.raw(params.bias.data().data(), kLayerDim * sizeof(float));
    }
    const std::uint64_t checksum =
        checksumBytes(out.data() + kHeaderBytes, payloadBytes);
    std::memcpy(out.data() + kChecksumOffset, &checksum,
                sizeof(checksum));
    return out;
}

bool
ParameterStore::save(std::ostream &out) const
{
    const std::string bytes = serialize();
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(out);
}

bool
ParameterStore::saveFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    return out && save(out);
}

bool
ParameterStore::load(std::istream &in)
{
    std::uint32_t magic = 0, version = 0, blocks = 0, choices = 0;
    std::uint64_t seed = 0, count = 0, payloadBytes = 0, checksum = 0;
    if (!readPod(in, magic) || !readPod(in, version) ||
        !readPod(in, blocks) || !readPod(in, choices) ||
        !readPod(in, seed) || !readPod(in, count) ||
        !readPod(in, payloadBytes) || !readPod(in, checksum)) {
        warn("parameter checkpoint: truncated header");
        return false;
    }
    if (magic != kCheckpointMagic) {
        warn("parameter checkpoint: bad magic ", magic,
             " (not a NASP checkpoint)");
        return false;
    }
    if (version != 2 && version != kCheckpointVersion) {
        warn("parameter checkpoint: unsupported format version ",
             version, " (this build reads versions 2 and ",
             kCheckpointVersion, ")");
        return false;
    }
    if (static_cast<int>(blocks) != _space.numBlocks() ||
        static_cast<int>(choices) != _space.choicesPerBlock() ||
        seed != _seed) {
        warn("parameter checkpoint does not match this store: space ",
             blocks, "x", choices, " seed ", seed, " vs ",
             _space.numBlocks(), "x", _space.choicesPerBlock(),
             " seed ", _seed);
        return false;
    }
    if (count > static_cast<std::uint64_t>(blocks) * choices) {
        warn("parameter checkpoint: layer count ", count,
             " exceeds the ", blocks, "x", choices, " space");
        return false;
    }

    // Pull exactly payloadBytes off the stream in chunks, so a
    // corrupted length field fails at end-of-stream instead of
    // attempting one huge allocation up front.
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
                warn("parameter checkpoint: payload truncated (",
                     bytes.size(), " of ", payloadBytes, " bytes)");
                return false;
            }
            bytes.append(buf, static_cast<std::size_t>(got));
            remaining -= static_cast<std::uint64_t>(got);
        }
    }
    if (payloadChecksum(version, bytes) != checksum) {
        warn("parameter checkpoint: payload checksum mismatch");
        return false;
    }

    // Checksum verified: the payload is byte-identical to what a
    // same-shape store saved, so parsing below mutates this store
    // only with data that will parse to completion. Every layer may
    // now hold older bits under a version seen before: a new epoch
    // tells stamp() readers apart.
    _epoch++;
    std::size_t off = 0;
    auto take = [&bytes, &off](void *dst, std::size_t n) {
        if (bytes.size() - off < n)
            return false;
        std::memcpy(dst, bytes.data() + off, n);
        off += n;
        return true;
    };
    for (std::uint64_t i = 0; i < count; i++) {
        std::uint64_t key = 0, layerVersion = 0;
        if (!take(&key, sizeof(key)) ||
            !take(&layerVersion, sizeof(layerVersion))) {
            warn("parameter checkpoint: payload ends inside layer ",
                 i);
            return false;
        }
        LayerId layer{static_cast<std::uint32_t>(key >> 32),
                      static_cast<std::uint32_t>(key & 0xffffffffULL)};
        if (static_cast<int>(layer.block) >= _space.numBlocks() ||
            static_cast<int>(layer.choice) >=
                _space.choicesPerBlock()) {
            warn("parameter checkpoint: layer (", layer.block, ", ",
                 layer.choice, ") outside the space");
            return false;
        }
        LayerParams &params = materialize(layer);
        if (!take(params.weight.data().data(),
                  params.weight.size() * sizeof(float)) ||
            !take(params.bias.data().data(),
                  params.bias.size() * sizeof(float))) {
            warn("parameter checkpoint: payload ends inside layer (",
                 layer.block, ", ", layer.choice, ")");
            return false;
        }
        _versions[slot(layer)] = layerVersion;
    }
    if (off != bytes.size()) {
        warn("parameter checkpoint: ", bytes.size() - off,
             " trailing payload bytes");
        return false;
    }
    return true;
}

bool
ParameterStore::loadFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        warn("cannot open parameter checkpoint file ", path);
        return false;
    }
    return load(in);
}

std::uint64_t
ParameterStore::touchedHash() const
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    // Table order is key order: deterministic.
    for (std::size_t i = 0; i < _params.size(); i++) {
        if (!_params[i])
            continue;
        std::uint64_t h = _params[i]->contentHash() ^ layerAt(i).key();
        hash ^= h + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
    }
    return hash;
}

} // namespace naspipe
