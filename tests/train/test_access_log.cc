/**
 * @file
 * Access log tests: Table 4 rendering, the streamed
 * sequential-equivalence verdict, and its agreement with the verdict
 * on the full history.
 */

#include <gtest/gtest.h>

#include <random>

#include "train/access_log.h"

namespace naspipe {
namespace {

constexpr int kBlocks = 4;
constexpr int kChoices = 4;

TEST(AccessLog, RendersPaperStyleOrder)
{
    AccessLog log(kBlocks, kChoices, /*keepHistory=*/true);
    LayerId layer{0, 0};
    // Table 4's NASPipe row: 2F-2B-5F-5B-7F-7B.
    for (SubnetId id : {2, 5, 7}) {
        log.record(layer, id, AccessKind::Read);
        log.record(layer, id, AccessKind::Write);
    }
    EXPECT_EQ(log.renderOrder(layer), "2F-2B-5F-5B-7F-7B");
}

TEST(AccessLog, SequentialEquivalenceAccepts)
{
    AccessLog log(kBlocks, kChoices);
    LayerId layer{0, 0};
    for (SubnetId id : {2, 5, 7}) {
        log.record(layer, id, AccessKind::Read);
        log.record(layer, id, AccessKind::Write);
    }
    EXPECT_TRUE(log.sequentiallyEquivalent(layer));
}

TEST(AccessLog, BspBulkOrderIsRejected)
{
    // Table 4's GPipe 8-GPU row: 2F-5F-7F-2B-5B-7B.
    AccessLog log(kBlocks, kChoices, /*keepHistory=*/true);
    LayerId layer{0, 0};
    for (SubnetId id : {2, 5, 7})
        log.record(layer, id, AccessKind::Read);
    for (SubnetId id : {2, 5, 7})
        log.record(layer, id, AccessKind::Write);
    EXPECT_EQ(log.renderOrder(layer), "2F-5F-7F-2B-5B-7B");
    EXPECT_FALSE(log.sequentiallyEquivalent(layer));
}

TEST(AccessLog, AspInterleavingIsRejected)
{
    // Table 4's PipeDream 4-GPU row: 2F-2B-5F-7F-5B-7B.
    AccessLog log(kBlocks, kChoices);
    LayerId layer{0, 0};
    log.record(layer, 2, AccessKind::Read);
    log.record(layer, 2, AccessKind::Write);
    log.record(layer, 5, AccessKind::Read);
    log.record(layer, 7, AccessKind::Read);
    log.record(layer, 5, AccessKind::Write);
    log.record(layer, 7, AccessKind::Write);
    EXPECT_FALSE(log.sequentiallyEquivalent(layer));
}

TEST(AccessLog, DescendingIdsRejected)
{
    AccessLog log(kBlocks, kChoices);
    LayerId layer{0, 0};
    log.record(layer, 5, AccessKind::Read);
    log.record(layer, 5, AccessKind::Write);
    log.record(layer, 2, AccessKind::Read);
    log.record(layer, 2, AccessKind::Write);
    EXPECT_FALSE(log.sequentiallyEquivalent(layer));
}

TEST(AccessLog, WriteWithoutReadRejected)
{
    AccessLog log(kBlocks, kChoices);
    LayerId layer{0, 0};
    log.record(layer, 1, AccessKind::Write);
    EXPECT_FALSE(log.sequentiallyEquivalent(layer));
}

TEST(AccessLog, DanglingReadRejected)
{
    AccessLog log(kBlocks, kChoices);
    LayerId layer{0, 0};
    log.record(layer, 1, AccessKind::Read);
    EXPECT_FALSE(log.sequentiallyEquivalent(layer));
}

TEST(AccessLog, EmptyHistoryIsTriviallyEquivalent)
{
    AccessLog log(kBlocks, kChoices, /*keepHistory=*/true);
    EXPECT_TRUE(log.sequentiallyEquivalent(LayerId{3, 3}));
    EXPECT_EQ(log.renderOrder(LayerId{3, 3}), "");
}

TEST(AccessLog, GlobalOrderSpansLayers)
{
    AccessLog log(kBlocks, kChoices, /*keepHistory=*/true);
    log.record(LayerId{0, 0}, 0, AccessKind::Read);
    log.record(LayerId{1, 1}, 0, AccessKind::Read);
    EXPECT_EQ(log.layerHistory(LayerId{0, 0})[0].order, 0u);
    EXPECT_EQ(log.layerHistory(LayerId{1, 1})[0].order, 1u);
    EXPECT_EQ(log.totalRecords(), 2u);
}

TEST(AccessLog, TouchedLayersAndAllCheck)
{
    AccessLog log(kBlocks, kChoices);
    LayerId good{0, 0}, bad{0, 1};
    log.record(good, 1, AccessKind::Read);
    log.record(good, 1, AccessKind::Write);
    log.record(bad, 2, AccessKind::Write);
    EXPECT_EQ(log.touchedLayers().size(), 2u);
    EXPECT_FALSE(log.allSequentiallyEquivalent());
}

TEST(AccessLog, DisabledLogRecordsNothing)
{
    AccessLog log(kBlocks, kChoices);
    log.enabled(false);
    log.record(LayerId{0, 0}, 0, AccessKind::Read);
    EXPECT_EQ(log.totalRecords(), 0u);
}

TEST(AccessLog, ClearResets)
{
    AccessLog log(kBlocks, kChoices);
    log.record(LayerId{0, 0}, 0, AccessKind::Read);
    log.clear();
    EXPECT_EQ(log.totalRecords(), 0u);
    EXPECT_TRUE(log.touchedLayers().empty());
}

TEST(AccessLogDeathTest, HistoryQueryWithoutHistoryAborts)
{
    AccessLog log(kBlocks, kChoices);
    log.record(LayerId{0, 0}, 0, AccessKind::Read);
    EXPECT_DEATH((void)log.layerHistory(LayerId{0, 0}),
                 "layerHistory needs the access history");
    EXPECT_DEATH((void)log.renderOrder(LayerId{0, 0}),
                 "layerHistory needs the access history");
    // Even an empty log must not hand out an empty history.
    AccessLog empty(kBlocks, kChoices);
    EXPECT_DEATH((void)empty.layerHistory(LayerId{1, 1}),
                 "needs the access history");
}

/**
 * Append one random access pattern for @p layer starting at subnet
 * @p next: a clean R,W pair, a BSP bulk (all reads, then all
 * writes), an ASP interleaving, a dangling read, a duplicate write,
 * a write without its read, or a pair below the last writer.
 */
void
appendPattern(std::mt19937_64 &rng, LayerId layer, SubnetId &next,
              std::vector<std::pair<LayerId, AccessRecord>> &stream)
{
    auto add = [&](SubnetId id, AccessKind kind) {
        AccessRecord rec;
        rec.subnet = id;
        rec.kind = kind;
        stream.emplace_back(layer, rec);
    };
    const SubnetId a = next;
    const SubnetId b = next + 1 + static_cast<SubnetId>(rng() % 3);
    next = b + 1;
    switch (rng() % 8) {
    case 0:
    case 1:
        add(a, AccessKind::Read);
        add(a, AccessKind::Write);
        break;
    case 2:  // BSP bulk order
        add(a, AccessKind::Read);
        add(b, AccessKind::Read);
        add(a, AccessKind::Write);
        add(b, AccessKind::Write);
        break;
    case 3:  // ASP interleaving
        add(a, AccessKind::Read);
        add(b, AccessKind::Read);
        add(b, AccessKind::Write);
        add(a, AccessKind::Write);
        break;
    case 4:  // dangling read
        add(a, AccessKind::Read);
        break;
    case 5:  // duplicate write
        add(a, AccessKind::Read);
        add(a, AccessKind::Write);
        add(a, AccessKind::Write);
        break;
    case 6:  // write without its read
        add(a, AccessKind::Write);
        break;
    default:  // descending: a pair below the last writer
        add(a, AccessKind::Read);
        add(a, AccessKind::Write);
        add(a - 1, AccessKind::Read);
        add(a - 1, AccessKind::Write);
        break;
    }
}

TEST(AccessLog, StreamedVerdictEqualsHistoryVerdict)
{
    for (std::uint64_t seed = 0; seed < 200; seed++) {
        std::mt19937_64 rng(seed);
        // Per-layer patterns, then a random interleaving that keeps
        // each layer's own order (the commit gate's guarantee).
        std::vector<std::vector<std::pair<LayerId, AccessRecord>>>
            perLayer;
        for (int b = 0; b < kBlocks; b++) {
            for (int c = 0; c < kChoices; c++) {
                if (rng() % 3 == 0)
                    continue;  // untouched layer
                LayerId layer{static_cast<std::uint32_t>(b),
                              static_cast<std::uint32_t>(c)};
                std::vector<std::pair<LayerId, AccessRecord>> stream;
                SubnetId next = 0;
                int patterns = 1 + static_cast<int>(rng() % 4);
                for (int p = 0; p < patterns; p++)
                    appendPattern(rng, layer, next, stream);
                if (rng() % 4 == 0)
                    stream.pop_back();  // cut a pair in half
                perLayer.push_back(std::move(stream));
            }
        }
        if (perLayer.empty())
            continue;
        AccessLog log(kBlocks, kChoices, /*keepHistory=*/true);
        std::vector<std::size_t> pos(perLayer.size(), 0);
        std::size_t left = 0;
        for (const auto &stream : perLayer)
            left += stream.size();
        while (left > 0) {
            std::size_t l = rng() % perLayer.size();
            if (pos[l] == perLayer[l].size())
                continue;
            const auto &[layer, rec] = perLayer[l][pos[l]++];
            log.record(layer, rec.subnet, rec.kind);
            left--;
        }

        int historyViolations = 0;
        for (const LayerId &layer : log.touchedLayers()) {
            bool clean = sequentiallyEquivalent(log.layerHistory(layer));
            EXPECT_EQ(log.sequentiallyEquivalent(layer), clean)
                << "seed " << seed << " layer (" << layer.block << ","
                << layer.choice << "): " << log.renderOrder(layer);
            historyViolations += clean ? 0 : 1;
        }
        EXPECT_EQ(log.violatedLayers(), historyViolations)
            << "seed " << seed;
    }
}

} // namespace
} // namespace naspipe
