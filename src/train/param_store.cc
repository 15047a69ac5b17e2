#include "train/param_store.h"

#include <cstring>

#include "common/byte_reader.h"
#include "common/byte_writer.h"
#include "common/file_io.h"
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
ParameterStore::saveFile(const std::string &path) const
{
    return writeFileAtomic(path, serialize());
}

bool
ParameterStore::load(std::string_view bytes)
{
    ByteReader in{bytes};
    std::uint32_t magic = 0, version = 0, blocks = 0, choices = 0;
    std::uint64_t seed = 0, count = 0, payloadBytes = 0, checksum = 0;
    if (!in.pod(magic) || !in.pod(version) || !in.pod(blocks) ||
        !in.pod(choices) || !in.pod(seed) || !in.pod(count) ||
        !in.pod(payloadBytes) || !in.pod(checksum)) {
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
    const std::string_view payload = in.rest;
    if (count > _params.size() || payloadBytes != count * kLayerBytes ||
        payload.size() != payloadBytes) {
        warn("parameter checkpoint: ", count, " layers of the ", blocks,
             "x", choices, " space in ", payloadBytes,
             " payload bytes, ", payload.size(), " present");
        return false;
    }
    if (payloadChecksum(version, payload.data(), payload.size()) !=
        checksum) {
        warn("parameter checkpoint: payload checksum mismatch");
        return false;
    }

    // A checksum is no proof of origin: check every layer key before
    // the first write, so a rejected payload leaves the store as it
    // was.
    std::vector<std::size_t> slots(static_cast<std::size_t>(count));
    for (std::size_t i = 0; i < slots.size(); i++) {
        std::uint64_t key = 0;
        std::memcpy(&key, payload.data() + i * kLayerBytes, sizeof(key));
        const std::uint64_t block = key >> 32, choice = key & 0xffffffffULL;
        if (block >= blocks || choice >= choices) {
            warn("parameter checkpoint: layer (", block, ", ", choice,
                 ") outside the space");
            return false;
        }
        slots[i] = block * choices + choice;
    }

    // Every layer may now hold older bits under a version seen
    // before: a new epoch tells stamp() readers apart.
    _epoch++;
    ByteReader layers{payload};
    for (std::size_t index : slots) {
        LayerParams &params = materialize(layerAt(index));
        layers.rest.remove_prefix(sizeof(std::uint64_t));  // the key
        layers.pod(_versions[index]);
        layers.raw(params.weight.data().data(),
                   kLayerDim * sizeof(float));
        layers.raw(params.bias.data().data(), kLayerDim * sizeof(float));
    }
    return true;
}

bool
ParameterStore::loadFile(const std::string &path)
{
    std::string bytes;
    return readFile(path, bytes) && load(bytes);
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
