/**
 * @file
 * Negative-path properties of the CspOracle: a real recorded run
 * passes the audit, and *any* order corruption of a shared layer's
 * history — most importantly the seeded swap-two-writes mutation of
 * the acceptance criteria — is rejected with a report naming the
 * layer and the offending sequence IDs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/engine.h"
#include "runtime/pipeline_runtime.h"
#include "verify/csp_oracle.h"

namespace naspipe {
namespace {

/** One small recorded run shared by every property below. */
const RunResult &
recordedRun()
{
    static const RunResult result = [] {
        RuntimeConfig c;
        c.system = naspipeSystem();
        c.numStages = 4;
        c.totalSubnets = 24;
        c.seed = 11;
        c.accessHistory = true;  // every property reads the history
        SearchSpace space = makeSpaceByName("NLP.c1");
        RunResult r = runTraining(space, c);
        EXPECT_FALSE(r.failed) << r.error;
        EXPECT_FALSE(r.oom);
        return r;
    }();
    return result;
}

/** A layer whose history has at least two distinct activators. */
LayerId
sharedLayerOf(const AccessLog &log)
{
    for (const LayerId &layer : log.touchedLayers()) {
        const std::vector<AccessRecord> &h = log.layerHistory(layer);
        if (h.size() >= 4 && h.front().subnet != h.back().subnet)
            return layer;
    }
    ADD_FAILURE() << "no shared layer in the recorded run";
    return LayerId{};
}

std::string
describe(const std::vector<CspViolation> &violations)
{
    std::string all;
    for (const CspViolation &v : violations)
        all += v.describe() + "\n";
    return all;
}

TEST(VerifyProperties, RecordedRunPassesTheAudit)
{
    CspOracle oracle;
    EXPECT_TRUE(oracle.auditLog(recordedRun().store->accessLog()))
        << oracle.report();
    EXPECT_GT(oracle.auditedLayers(), 0u);
}

TEST(VerifyProperties, SwappedWritesOnSharedLayerAreRejected)
{
    const AccessLog &log = recordedRun().store->accessLog();
    LayerId layer = sharedLayerOf(log);
    std::vector<AccessRecord> mutated = log.layerHistory(layer);

    // Seeded corruption: swap the WRITEs of the first two activators.
    std::vector<std::size_t> writes;
    for (std::size_t i = 0; i < mutated.size(); i++) {
        if (mutated[i].kind == AccessKind::Write)
            writes.push_back(i);
    }
    ASSERT_GE(writes.size(), 2u);
    SubnetId a = mutated[writes[0]].subnet;
    SubnetId b = mutated[writes[1]].subnet;
    ASSERT_NE(a, b);
    std::swap(mutated[writes[0]].subnet, mutated[writes[1]].subnet);

    CspOracle oracle;
    EXPECT_FALSE(oracle.auditLayer(layer, mutated));
    ASSERT_FALSE(oracle.ok());

    // The report names the mutated layer and both sequence IDs.
    std::string report = oracle.report();
    EXPECT_NE(report.find("layer(block " +
                          std::to_string(layer.block) + ", choice " +
                          std::to_string(layer.choice) + ")"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("SN" + std::to_string(a)),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("SN" + std::to_string(b)),
              std::string::npos)
        << report;
}

TEST(VerifyProperties, AnyAdjacentSwapOnSharedLayerIsRejected)
{
    // Stronger property: the clean history is *rigid*. Swapping any
    // adjacent pair of records that differ in (subnet, kind) must
    // trip the oracle — there is no reordering slack the audit
    // cannot see.
    const AccessLog &log = recordedRun().store->accessLog();
    LayerId layer = sharedLayerOf(log);
    const std::vector<AccessRecord> &clean = log.layerHistory(layer);

    for (std::size_t i = 0; i + 1 < clean.size(); i++) {
        if (clean[i].subnet == clean[i + 1].subnet &&
            clean[i].kind == clean[i + 1].kind)
            continue;
        std::vector<AccessRecord> mutated = clean;
        std::swap(mutated[i].subnet, mutated[i + 1].subnet);
        std::swap(mutated[i].kind, mutated[i + 1].kind);
        CspOracle oracle;
        EXPECT_FALSE(oracle.auditLayer(layer, mutated))
            << "swap at " << i << " went undetected";
    }
}

TEST(VerifyProperties, DroppedWriteIsRejected)
{
    const AccessLog &log = recordedRun().store->accessLog();
    LayerId layer = sharedLayerOf(log);
    std::vector<AccessRecord> mutated = log.layerHistory(layer);
    auto firstWrite =
        std::find_if(mutated.begin(), mutated.end(),
                     [](const AccessRecord &r) {
                         return r.kind == AccessKind::Write;
                     });
    ASSERT_NE(firstWrite, mutated.end());
    mutated.erase(firstWrite);

    CspOracle oracle;
    EXPECT_FALSE(oracle.auditLayer(layer, mutated))
        << "a lost write must not audit clean";
}

TEST(VerifyProperties, ViolationsLocalizeToTheCorruptedLayer)
{
    // Audit the full log with exactly one layer corrupted: every
    // violation must name that layer, none may leak elsewhere.
    const AccessLog &log = recordedRun().store->accessLog();
    LayerId corrupted = sharedLayerOf(log);

    CspOracle oracle;
    for (const LayerId &layer : log.touchedLayers()) {
        std::vector<AccessRecord> h = log.layerHistory(layer);
        if (layer == corrupted) {
            std::vector<std::size_t> writes;
            for (std::size_t i = 0; i < h.size(); i++) {
                if (h[i].kind == AccessKind::Write)
                    writes.push_back(i);
            }
            ASSERT_GE(writes.size(), 2u);
            std::swap(h[writes[0]].subnet, h[writes[1]].subnet);
        }
        oracle.auditLayer(layer, h);
    }
    ASSERT_FALSE(oracle.ok());
    for (const CspViolation &v : oracle.violations())
        EXPECT_EQ(v.layer, corrupted) << describe(oracle.violations());
}

} // namespace
} // namespace naspipe
