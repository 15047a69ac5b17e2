#include "train/access_log.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/byte_writer.h"
#include "common/logging.h"

namespace naspipe {

namespace {

constexpr std::uint8_t kTouched = 1;
constexpr std::uint8_t kPending = 2;
constexpr std::uint8_t kViolated = 4;
constexpr std::uint64_t kHasHistory = 1;
/// A cursor (lastWriter, pendingReader, state) or a record (order,
/// subnet, kind): three u64s.
constexpr std::size_t kEntryBytes = 3 * 8;

std::uint64_t
encodeSubnet(SubnetId id)
{
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(id));
}

SubnetId
decodeSubnet(std::uint64_t raw)
{
    return static_cast<SubnetId>(static_cast<std::int64_t>(raw));
}

/**
 * Read @p count records (order, subnet, kind) into @p out, each with
 * an order below @p total.
 */
bool
readRecords(ByteReader &in, std::uint64_t count, std::uint64_t total,
            std::vector<AccessRecord> &out)
{
    if (in.rest.size() / kEntryBytes < count)
        return false;
    out.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t r = 0; r < count; r++) {
        std::uint64_t order = 0, subnet = 0, kind = 0;
        in.pod(order);
        in.pod(subnet);
        in.pod(kind);
        if (order >= total || kind > 1)
            return false;
        out.push_back(AccessRecord{
            order, decodeSubnet(subnet),
            kind ? AccessKind::Write : AccessKind::Read});
    }
    return true;
}

} // namespace

bool
sequentiallyEquivalent(const std::vector<AccessRecord> &history)
{
    // Expect: R(x1) W(x1) R(x2) W(x2) ... with x1 < x2 < ...
    SubnetId last = -1;
    std::size_t i = 0;
    while (i < history.size()) {
        if (history[i].kind != AccessKind::Read)
            return false;
        SubnetId id = history[i].subnet;
        if (id <= last)
            return false;
        if (i + 1 >= history.size() ||
            history[i + 1].kind != AccessKind::Write ||
            history[i + 1].subnet != id) {
            return false;
        }
        last = id;
        i += 2;
    }
    return true;
}

void
AccessLog::Cursor::advance(SubnetId subnet, AccessKind kind)
{
    state |= kTouched;
    if (state & kViolated)
        return;
    if (kind == AccessKind::Read) {
        // A read opens a pair: none may be open, and the reader must
        // come after the last writer.
        if ((state & kPending) || subnet <= lastWriter) {
            state |= kViolated;
            return;
        }
        state |= kPending;
        pendingReader = subnet;
    } else {
        // A write closes the pair its own read opened.
        if (!(state & kPending) || subnet != pendingReader) {
            state |= kViolated;
            return;
        }
        state &= static_cast<std::uint8_t>(~kPending);
        lastWriter = subnet;
    }
}

AccessLog::Cursor
AccessLog::replay(const std::vector<AccessRecord> &history)
{
    Cursor cursor;
    for (const AccessRecord &rec : history)
        cursor.advance(rec.subnet, rec.kind);
    return cursor;
}

AccessLog::AccessLog(int numBlocks, int choicesPerBlock,
                     bool keepHistory)
    : _numBlocks(numBlocks), _choicesPerBlock(choicesPerBlock),
      _cursors(static_cast<std::size_t>(numBlocks) *
               static_cast<std::size_t>(choicesPerBlock))
{
    this->keepHistory(keepHistory);
}

void
AccessLog::keepHistory(bool on)
{
    NASPIPE_ASSERT(totalRecords() == 0,
                   "access history can only be switched on an empty "
                   "log");
    _keepHistory = on;
    _history.assign(on ? _cursors.size() : 0, {});
}

std::size_t
AccessLog::slot(const LayerId &layer) const
{
    NASPIPE_ASSERT(static_cast<int>(layer.block) < _numBlocks &&
                       static_cast<int>(layer.choice) <
                           _choicesPerBlock,
                   "layer (", layer.block, ",", layer.choice,
                   ") outside the access log's ", _numBlocks, "x",
                   _choicesPerBlock, " table");
    return static_cast<std::size_t>(layer.block) *
               static_cast<std::size_t>(_choicesPerBlock) +
           layer.choice;
}

LayerId
AccessLog::layerAt(std::size_t index) const
{
    const auto choices = static_cast<std::size_t>(_choicesPerBlock);
    return LayerId{static_cast<std::uint32_t>(index / choices),
                   static_cast<std::uint32_t>(index % choices)};
}

void
AccessLog::record(const LayerId &layer, SubnetId subnet,
                  AccessKind kind, int stage)
{
    if (!_enabled)
        return;
    const std::size_t i = slot(layer);
    const std::uint64_t order = _records.fetch_add(1);
    _cursors[i].advance(subnet, kind);
    if (_keepHistory)
        _history[i].push_back(AccessRecord{order, subnet, kind, stage});
}

bool
AccessLog::sequentiallyEquivalent(const LayerId &layer) const
{
    return (_cursors[slot(layer)].state & (kPending | kViolated)) == 0;
}

int
AccessLog::violatedLayers() const
{
    int violated = 0;
    for (const Cursor &cursor : _cursors)
        violated += (cursor.state & (kPending | kViolated)) != 0;
    return violated;
}

std::vector<LayerId>
AccessLog::touchedLayers() const
{
    std::vector<LayerId> out;
    for (std::size_t i = 0; i < _cursors.size(); i++) {
        if (_cursors[i].state & kTouched)
            out.push_back(layerAt(i));
    }
    return out;
}

void
AccessLog::requireHistory(const char *query) const
{
    if (_keepHistory)
        return;
    // Not a recoverable error: an empty history would audit clean.
    std::fprintf(stderr,
                 "naspipe: %s needs the access history, but this log "
                 "keeps none (enable RuntimeConfig::accessHistory)\n",
                 query);
    std::fflush(stderr);
    std::abort();
}

const std::vector<AccessRecord> &
AccessLog::layerHistory(const LayerId &layer) const
{
    requireHistory("AccessLog::layerHistory");
    return _history[slot(layer)];
}

std::string
AccessLog::renderOrder(const LayerId &layer) const
{
    std::ostringstream oss;
    const auto &history = layerHistory(layer);
    for (std::size_t i = 0; i < history.size(); i++) {
        if (i)
            oss << "-";
        oss << history[i].subnet
            << (history[i].kind == AccessKind::Read ? "F" : "B");
    }
    return oss.str();
}

std::string
AccessLog::serialize() const
{
    const std::vector<LayerId> touched =
        _keepHistory ? touchedLayers() : std::vector<LayerId>{};
    std::size_t size = 3 * 8 + _cursors.size() * kEntryBytes;
    if (_keepHistory) {
        size += 8;
        for (const LayerId &layer : touched)
            size += 2 * 8 + _history[slot(layer)].size() * kEntryBytes;
    }
    std::string out(size, '\0');
    ByteWriter w{out.data()};
    w.pod(totalRecords());
    w.pod((static_cast<std::uint64_t>(_numBlocks) << 32) |
          static_cast<std::uint32_t>(_choicesPerBlock));
    w.pod(_keepHistory ? kHasHistory : std::uint64_t{0});
    for (const Cursor &cursor : _cursors) {
        w.pod(encodeSubnet(cursor.lastWriter));
        w.pod(encodeSubnet(cursor.pendingReader));
        w.pod(static_cast<std::uint64_t>(cursor.state));
    }
    if (_keepHistory) {
        // The v1 history layout: touched layers, each with its key.
        w.pod(static_cast<std::uint64_t>(touched.size()));
        for (const LayerId &layer : touched) {
            const std::vector<AccessRecord> &records =
                _history[slot(layer)];
            w.pod(layer.key());
            w.pod(static_cast<std::uint64_t>(records.size()));
            for (const AccessRecord &rec : records) {
                w.pod(rec.order);
                w.pod(encodeSubnet(rec.subnet));
                w.pod(std::uint64_t{rec.kind == AccessKind::Write});
            }
        }
    }
    NASPIPE_ASSERT(w.at == out.data() + out.size(),
                   "access log size mismatch");
    return out;
}

bool
AccessLog::readHistory(ByteReader &in, std::uint64_t total,
                       std::vector<std::vector<AccessRecord>> &history)
    const
{
    std::uint64_t numLayers = 0;
    if (!in.pod(numLayers) || numLayers > _cursors.size())
        return false;
    history.assign(_cursors.size(), {});
    std::uint64_t seen = 0;
    for (std::uint64_t l = 0; l < numLayers; l++) {
        std::uint64_t key = 0;
        std::uint64_t count = 0;
        // Every record carries a distinct order < total, so more
        // records than that can only come from a damaged section.
        if (!in.pod(key) || !in.pod(count) || count > total - seen)
            return false;
        LayerId layer{static_cast<std::uint32_t>(key >> 32),
                      static_cast<std::uint32_t>(key & 0xffffffffULL)};
        if (static_cast<int>(layer.block) >= _numBlocks ||
            static_cast<int>(layer.choice) >= _choicesPerBlock) {
            return false;
        }
        std::vector<AccessRecord> &records = history[slot(layer)];
        if (!records.empty() || !readRecords(in, count, total, records))
            return false;
        seen += count;
    }
    return true;
}

bool
AccessLog::loadFrom(std::string_view bytes)
{
    clear();
    ByteReader in{bytes};
    std::uint64_t total = 0, shape = 0, flags = 0;
    if (!in.pod(total) || !in.pod(shape) || !in.pod(flags) ||
        flags > kHasHistory) {
        return false;
    }
    if (shape != ((static_cast<std::uint64_t>(_numBlocks) << 32) |
                  static_cast<std::uint32_t>(_choicesPerBlock))) {
        warn("access log: saved for a ", shape >> 32, "x",
             shape & 0xffffffffULL, " table, this run has ",
             _numBlocks, "x", _choicesPerBlock);
        return false;
    }
    std::vector<Cursor> cursors(_cursors.size());
    for (Cursor &cursor : cursors) {
        std::uint64_t writer = 0, reader = 0, state = 0;
        if (!in.pod(writer) || !in.pod(reader) || !in.pod(state) ||
            state > (kTouched | kPending | kViolated) ||
            (state && !(state & kTouched))) {
            return false;
        }
        cursor = Cursor{decodeSubnet(writer), decodeSubnet(reader),
                        static_cast<std::uint8_t>(state)};
    }
    std::vector<std::vector<AccessRecord>> history;
    if (flags & kHasHistory) {
        if (!readHistory(in, total, history))
            return false;
        for (std::size_t i = 0; i < history.size(); i++) {
            if (!(replay(history[i]) == cursors[i]))
                return false;
        }
    } else if (_keepHistory) {
        warn("access log: this run keeps the full access history "
             "(--verify-csp, RuntimeConfig::accessHistory) but the "
             "checkpoint carries none");
        return false;
    }
    if (!in.exhausted())
        return false;
    _cursors = std::move(cursors);
    if (_keepHistory)
        _history = std::move(history);
    _records.store(total);
    return true;
}

bool
AccessLog::loadV1From(std::string_view bytes)
{
    clear();
    ByteReader in{bytes};
    std::uint64_t total = 0;
    std::vector<std::vector<AccessRecord>> history;
    if (!in.pod(total) || !readHistory(in, total, history) ||
        !in.exhausted()) {
        return false;
    }
    for (std::size_t i = 0; i < history.size(); i++)
        _cursors[i] = replay(history[i]);
    if (_keepHistory)
        _history = std::move(history);
    _records.store(total);
    return true;
}

void
AccessLog::clear()
{
    _records.store(0);
    _cursors.assign(_cursors.size(), Cursor{});
    for (auto &records : _history)
        records.clear();
}

} // namespace naspipe
