#include "train/access_log.h"

#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/logging.h"

namespace naspipe {

namespace {

constexpr std::uint8_t kTouched = 1;
constexpr std::uint8_t kPending = 2;
constexpr std::uint8_t kViolated = 4;
constexpr std::uint64_t kHasHistory = 1;

void
writeU64(std::ostream &out, std::uint64_t value)
{
    out.write(reinterpret_cast<const char *>(&value), sizeof(value));
}

bool
readU64(std::istream &in, std::uint64_t &value)
{
    in.read(reinterpret_cast<char *>(&value), sizeof(value));
    return in.gcount() == sizeof(value);
}

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
readRecords(std::istream &in, std::uint64_t count, std::uint64_t total,
            std::vector<AccessRecord> &out)
{
    out.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t r = 0; r < count; r++) {
        std::uint64_t order = 0, subnet = 0, kind = 0;
        if (!readU64(in, order) || !readU64(in, subnet) ||
            !readU64(in, kind)) {
            return false;
        }
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

void
AccessLog::saveTo(std::ostream &out) const
{
    writeU64(out, totalRecords());
    writeU64(out, (static_cast<std::uint64_t>(_numBlocks) << 32) |
                      static_cast<std::uint32_t>(_choicesPerBlock));
    writeU64(out, _keepHistory ? kHasHistory : 0);
    for (const Cursor &cursor : _cursors) {
        writeU64(out, encodeSubnet(cursor.lastWriter));
        writeU64(out, encodeSubnet(cursor.pendingReader));
        writeU64(out, cursor.state);
    }
    if (!_keepHistory)
        return;
    // The v1 history layout: touched layers, each with its key.
    const std::vector<LayerId> touched = touchedLayers();
    writeU64(out, touched.size());
    for (const LayerId &layer : touched) {
        const std::vector<AccessRecord> &records = _history[slot(layer)];
        writeU64(out, layer.key());
        writeU64(out, records.size());
        for (const AccessRecord &rec : records) {
            writeU64(out, rec.order);
            writeU64(out, encodeSubnet(rec.subnet));
            writeU64(out, rec.kind == AccessKind::Write ? 1 : 0);
        }
    }
}

bool
AccessLog::readHistory(std::istream &in, std::uint64_t total,
                       std::vector<std::vector<AccessRecord>> &history)
    const
{
    std::uint64_t numLayers = 0;
    if (!readU64(in, numLayers) || numLayers > _cursors.size())
        return false;
    history.assign(_cursors.size(), {});
    std::uint64_t seen = 0;
    for (std::uint64_t l = 0; l < numLayers; l++) {
        std::uint64_t key = 0;
        std::uint64_t count = 0;
        // Every record carries a distinct order < total, so more
        // records than that can only come from a damaged stream.
        if (!readU64(in, key) || !readU64(in, count) ||
            count > total - seen) {
            return false;
        }
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
AccessLog::loadFrom(std::istream &in)
{
    clear();
    std::uint64_t total = 0, shape = 0, flags = 0;
    if (!readU64(in, total) || !readU64(in, shape) ||
        !readU64(in, flags) || flags > kHasHistory) {
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
        if (!readU64(in, writer) || !readU64(in, reader) ||
            !readU64(in, state) ||
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
    _cursors = std::move(cursors);
    if (_keepHistory)
        _history = std::move(history);
    _records.store(total);
    return true;
}

bool
AccessLog::loadV1From(std::istream &in)
{
    clear();
    std::uint64_t total = 0;
    std::vector<std::vector<AccessRecord>> history;
    if (!readU64(in, total) || !readHistory(in, total, history))
        return false;
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
