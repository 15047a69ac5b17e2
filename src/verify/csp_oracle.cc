#include "verify/csp_oracle.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "exec/commit_gate.h"

namespace naspipe {

namespace {

LayerId
layerFromKey(std::uint64_t key)
{
    return LayerId{static_cast<std::uint32_t>(key >> 32),
                   static_cast<std::uint32_t>(key & 0xffffffffULL)};
}

std::string
layerName(const LayerId &layer)
{
    std::ostringstream oss;
    oss << "layer(block " << layer.block << ", choice " << layer.choice
        << ")";
    return oss.str();
}

std::string
stageName(int stage)
{
    return stage < 0 ? std::string("stage ?")
                     : "stage " + std::to_string(stage);
}

} // namespace

const char *
CspViolation::kindName() const
{
    switch (kind) {
      case Kind::ReadBeforeWrite:
        return "read-before-write";
      case Kind::ReadAfterFuture:
        return "read-after-future-write";
      case Kind::WriteBeforeRead:
        return "write-before-read";
      case Kind::WriteOrder:
        return "write-order";
      case Kind::DuplicateRead:
        return "duplicate-read";
      case Kind::DuplicateWrite:
        return "duplicate-write";
      case Kind::CommitOrder:
        return "commit-order";
    }
    return "?";
}

std::string
CspViolation::describe() const
{
    std::ostringstream oss;
    oss << kindName() << ": " << layerName(layer) << " on "
        << stageName(stage) << ": ";
    switch (kind) {
      case Kind::ReadBeforeWrite:
        oss << "SN" << second << "'s read observed stale parameters"
            << " — SN" << first
            << " (largest smaller activator) had not written yet";
        break;
      case Kind::ReadAfterFuture:
        oss << "SN" << second << "'s read observed SN" << first
            << "'s write, which has a larger (or equal) sequence ID";
        break;
      case Kind::WriteBeforeRead:
        oss << "SN" << second
            << " wrote without a preceding read of its own";
        break;
      case Kind::WriteOrder:
        oss << "writes left sequence order: SN" << second
            << " wrote after SN" << first;
        break;
      case Kind::DuplicateRead:
        oss << "SN" << second << " read the layer twice";
        break;
      case Kind::DuplicateWrite:
        oss << "SN" << second << " wrote the layer twice";
        break;
      case Kind::CommitOrder:
        oss << "commit of SN" << second
            << " did not extend the causal chain by one (last "
            << "committed: SN" << first << ")";
        break;
    }
    if (orderFirst || orderSecond) {
        oss << " [log orders " << orderFirst << ", " << orderSecond
            << "]";
    }
    return oss.str();
}

void
CspOracle::addViolation(CspViolation violation)
{
    std::lock_guard<RankedMutex> lock(_oracleMu);
    _violations.push_back(std::move(violation));
}

bool
CspOracle::auditLayer(const LayerId &layer,
                      const std::vector<AccessRecord> &history)
{
    // The layer's activator set is exactly the subnets appearing in
    // its history: every activator reads and writes the layer once.
    std::set<SubnetId> activators;
    for (const AccessRecord &rec : history)
        activators.insert(rec.subnet);

    std::set<SubnetId> reads;
    std::map<SubnetId, std::uint64_t> writeOrder;
    std::map<SubnetId, std::uint64_t> readOrder;
    SubnetId lastWriter = -1;
    std::uint64_t lastWriteOrder = 0;
    std::size_t before;
    {
        std::lock_guard<RankedMutex> lock(_oracleMu);
        before = _violations.size();
    }

    auto add = [&](CspViolation::Kind kind, SubnetId first,
                   SubnetId second, std::uint64_t orderFirst,
                   const AccessRecord &rec) {
        CspViolation v;
        v.kind = kind;
        v.layer = layer;
        v.stage = rec.stage;
        v.first = first;
        v.second = second;
        v.orderFirst = orderFirst;
        v.orderSecond = rec.order;
        addViolation(std::move(v));
    };

    for (const AccessRecord &rec : history) {
        const SubnetId s = rec.subnet;
        if (rec.kind == AccessKind::Read) {
            if (reads.count(s)) {
                add(CspViolation::Kind::DuplicateRead, s, s,
                    readOrder[s], rec);
                continue;
            }
            readOrder[s] = rec.order;
            reads.insert(s);
            // Freshness, missing half: the largest smaller activator
            // must already have written.
            auto it = activators.lower_bound(s);
            if (it != activators.begin()) {
                SubnetId precedent = *std::prev(it);
                if (!writeOrder.count(precedent)) {
                    add(CspViolation::Kind::ReadBeforeWrite,
                        precedent, s, 0, rec);
                }
            }
            // Freshness, overshoot half: no write by an ID >= s may
            // precede s's read.
            if (lastWriter >= s) {
                add(CspViolation::Kind::ReadAfterFuture, lastWriter,
                    s, lastWriteOrder, rec);
            }
        } else {
            if (writeOrder.count(s)) {
                add(CspViolation::Kind::DuplicateWrite, s, s,
                    writeOrder[s], rec);
                continue;
            }
            if (!reads.count(s))
                add(CspViolation::Kind::WriteBeforeRead, s, s, 0, rec);
            if (lastWriter > s) {
                add(CspViolation::Kind::WriteOrder, lastWriter, s,
                    lastWriteOrder, rec);
            }
            writeOrder[s] = rec.order;
            if (s > lastWriter) {
                lastWriter = s;
                lastWriteOrder = rec.order;
            }
        }
    }

    std::lock_guard<RankedMutex> lock(_oracleMu);
    _auditedLayers++;
    _auditedRecords += history.size();
    return _violations.size() == before;
}

bool
CspOracle::auditLog(const AccessLog &log)
{
    log.requireHistory("CspOracle::auditLog");
    bool clean = true;
    for (const LayerId &layer : log.touchedLayers())
        clean = auditLayer(layer, log.layerHistory(layer)) && clean;
    return clean;
}

void
CspOracle::observeCommit(std::uint64_t layerKey, SubnetId subnet,
                         std::size_t rank, int stage)
{
    std::lock_guard<RankedMutex> lock(_oracleMu);
    _observedCommits++;
    ChainCursor &cursor = _chains[layerKey];
    if (rank != cursor.nextRank || subnet <= cursor.lastSubnet) {
        CspViolation v;
        v.kind = CspViolation::Kind::CommitOrder;
        v.layer = layerFromKey(layerKey);
        v.stage = stage;
        v.first = cursor.lastSubnet;
        v.second = subnet;
        _violations.push_back(std::move(v));
    }
    // Resync so one skipped commit is reported once, not once per
    // subsequent commit.
    cursor.nextRank = rank + 1;
    cursor.lastSubnet = subnet;
}

void
CspOracle::attach(CommitGate &gate)
{
    gate.onCommitEvent([this](std::uint64_t layerKey, SubnetId subnet,
                              std::size_t rank, int stage) {
        observeCommit(layerKey, subnet, rank, stage);
    });
}

bool
CspOracle::ok() const
{
    std::lock_guard<RankedMutex> lock(_oracleMu);
    return _violations.empty();
}

std::vector<CspViolation>
CspOracle::violations() const
{
    std::lock_guard<RankedMutex> lock(_oracleMu);
    return _violations;
}

std::string
CspOracle::report() const
{
    std::vector<CspViolation> all = violations();
    if (all.empty())
        return "";
    std::ostringstream oss;
    oss << "CSP invariant violations (" << all.size() << "):\n";
    for (std::size_t i = 0; i < all.size(); i++)
        oss << "  " << (i + 1) << ". " << all[i].describe() << "\n";
    return oss.str();
}

std::uint64_t
CspOracle::observedCommits() const
{
    std::lock_guard<RankedMutex> lock(_oracleMu);
    return _observedCommits;
}

void
CspOracle::clear()
{
    std::lock_guard<RankedMutex> lock(_oracleMu);
    _violations.clear();
    _chains.clear();
    _auditedLayers = 0;
    _auditedRecords = 0;
    _observedCommits = 0;
}

void
CspOracle::resetLiveChains()
{
    std::lock_guard<RankedMutex> lock(_oracleMu);
    _chains.clear();
}

} // namespace naspipe
