/**
 * @file
 * CspOracle unit tests: every violation kind fires on the minimal
 * history that exhibits it, clean histories stay clean, and the
 * report names the layer, stage and offending sequence IDs.
 */

#include <gtest/gtest.h>

#include "exec/commit_gate.h"
#include "train/access_log.h"
#include "verify/csp_oracle.h"

using namespace naspipe;

namespace {

const LayerId kLayer{3, 1};

/** Build a history from (subnet, kind, stage) triples. */
std::vector<AccessRecord>
history(std::initializer_list<std::tuple<SubnetId, AccessKind, int>>
            accesses)
{
    std::vector<AccessRecord> records;
    std::uint64_t order = 1;
    for (const auto &[subnet, kind, stage] : accesses)
        records.push_back(AccessRecord{order++, subnet, kind, stage});
    return records;
}

constexpr AccessKind R = AccessKind::Read;
constexpr AccessKind W = AccessKind::Write;

} // namespace

TEST(CspOracle, SequentialHistoryIsClean)
{
    CspOracle oracle;
    EXPECT_TRUE(oracle.auditLayer(
        kLayer, history({{2, R, 0}, {2, W, 0}, {5, R, 1}, {5, W, 1},
                         {7, R, 0}, {7, W, 0}})));
    EXPECT_TRUE(oracle.ok());
    EXPECT_EQ(oracle.auditedLayers(), 1u);
    EXPECT_EQ(oracle.auditedRecords(), 6u);
    EXPECT_EQ(oracle.report(), "");
}

TEST(CspOracle, SingleActivatorIsClean)
{
    CspOracle oracle;
    EXPECT_TRUE(oracle.auditLayer(kLayer, history({{4, R, 2},
                                                   {4, W, 2}})));
    EXPECT_TRUE(oracle.ok());
}

TEST(CspOracle, EmptyHistoryIsClean)
{
    CspOracle oracle;
    EXPECT_TRUE(oracle.auditLayer(kLayer, {}));
    EXPECT_TRUE(oracle.ok());
}

TEST(CspOracle, ReadBeforePrecedingWrite)
{
    // SN5 reads before SN2 (its largest smaller activator) wrote.
    CspOracle oracle;
    EXPECT_FALSE(oracle.auditLayer(
        kLayer, history({{2, R, 0}, {5, R, 1}, {2, W, 0}, {5, W, 1}})));
    ASSERT_FALSE(oracle.ok());
    const CspViolation v = oracle.violations().front();
    EXPECT_EQ(v.kind, CspViolation::Kind::ReadBeforeWrite);
    EXPECT_EQ(v.first, 2);
    EXPECT_EQ(v.second, 5);
    EXPECT_EQ(v.stage, 1);
}

TEST(CspOracle, ReadObservesFutureWrite)
{
    // SN2's read arrives after SN5 already wrote: stale-free but
    // future-contaminated.
    CspOracle oracle;
    oracle.auditLayer(
        kLayer, history({{5, R, 1}, {5, W, 1}, {2, R, 0}, {2, W, 0}}));
    ASSERT_FALSE(oracle.ok());
    bool sawFuture = false;
    for (const CspViolation &v : oracle.violations()) {
        if (v.kind == CspViolation::Kind::ReadAfterFuture) {
            sawFuture = true;
            EXPECT_EQ(v.first, 5);
            EXPECT_EQ(v.second, 2);
        }
    }
    EXPECT_TRUE(sawFuture);
}

TEST(CspOracle, WriteWithoutRead)
{
    CspOracle oracle;
    oracle.auditLayer(kLayer, history({{3, W, 0}}));
    ASSERT_FALSE(oracle.ok());
    EXPECT_EQ(oracle.violations().front().kind,
              CspViolation::Kind::WriteBeforeRead);
}

TEST(CspOracle, DuplicateAccesses)
{
    CspOracle oracle;
    oracle.auditLayer(kLayer, history({{3, R, 0}, {3, R, 0}, {3, W, 0},
                                       {3, W, 0}}));
    ASSERT_EQ(oracle.violations().size(), 2u);
    EXPECT_EQ(oracle.violations()[0].kind,
              CspViolation::Kind::DuplicateRead);
    EXPECT_EQ(oracle.violations()[1].kind,
              CspViolation::Kind::DuplicateWrite);
}

TEST(CspOracle, SwappedWritesAreRejected)
{
    // The negative path of the acceptance criteria: take the clean
    // two-activator history and swap the two writes.
    CspOracle oracle;
    EXPECT_FALSE(oracle.auditLayer(
        kLayer, history({{1, R, 0}, {2, W, 1}, {2, R, 1}, {1, W, 0}})));
    bool sawOrder = false;
    for (const CspViolation &v : oracle.violations()) {
        if (v.kind == CspViolation::Kind::WriteOrder) {
            sawOrder = true;
            // Report names the two swapped sequence IDs.
            EXPECT_EQ(v.first, 2);
            EXPECT_EQ(v.second, 1);
        }
    }
    EXPECT_TRUE(sawOrder);
}

TEST(CspOracle, ReportNamesLayerStageAndSequenceIds)
{
    CspOracle oracle;
    oracle.auditLayer(LayerId{7, 2},
                      history({{2, R, 3}, {5, R, 4}, {2, W, 3},
                               {5, W, 4}}));
    std::string report = oracle.report();
    EXPECT_NE(report.find("layer(block 7, choice 2)"),
              std::string::npos);
    EXPECT_NE(report.find("stage 4"), std::string::npos);
    EXPECT_NE(report.find("SN2"), std::string::npos);
    EXPECT_NE(report.find("SN5"), std::string::npos);
    EXPECT_NE(report.find("read-before-write"), std::string::npos);
}

TEST(CspOracle, AuditLogCoversEveryTouchedLayer)
{
    AccessLog log(2, 3, /*keepHistory=*/true);
    log.record(LayerId{0, 0}, 1, R, 0);
    log.record(LayerId{0, 0}, 1, W, 0);
    log.record(LayerId{1, 2}, 1, R, 1);
    log.record(LayerId{1, 2}, 1, W, 1);
    CspOracle oracle;
    EXPECT_TRUE(oracle.auditLog(log));
    EXPECT_EQ(oracle.auditedLayers(), 2u);
    EXPECT_EQ(oracle.auditedRecords(), 4u);
}

TEST(CspOracleDeathTest, AuditLogWithoutHistoryAborts)
{
    // A log without history would audit clean on no evidence at all.
    AccessLog log(2, 3);
    log.record(LayerId{0, 0}, 1, R, 0);
    CspOracle oracle;
    EXPECT_DEATH(oracle.auditLog(log),
                 "auditLog needs the access history");
}

TEST(CspOracle, LiveCommitsInChainOrderAreClean)
{
    CspOracle oracle;
    oracle.observeCommit(kLayer.key(), 2, 0, 0);
    oracle.observeCommit(kLayer.key(), 5, 1, 1);
    oracle.observeCommit(kLayer.key(), 7, 2, 0);
    EXPECT_TRUE(oracle.ok());
    EXPECT_EQ(oracle.observedCommits(), 3u);
}

TEST(CspOracle, LiveCommitRankSkipIsRejected)
{
    CspOracle oracle;
    oracle.observeCommit(kLayer.key(), 2, 0, 0);
    oracle.observeCommit(kLayer.key(), 7, 2, 0);  // skipped rank 1
    ASSERT_FALSE(oracle.ok());
    EXPECT_EQ(oracle.violations().front().kind,
              CspViolation::Kind::CommitOrder);
    // Cursor resyncs: the next in-order commit is not re-reported.
    oracle.observeCommit(kLayer.key(), 9, 3, 0);
    EXPECT_EQ(oracle.violations().size(), 1u);
}

TEST(CspOracle, LiveCommitSubnetRegressionIsRejected)
{
    CspOracle oracle;
    oracle.observeCommit(kLayer.key(), 5, 0, 0);
    oracle.observeCommit(kLayer.key(), 2, 1, 1);  // IDs must ascend
    ASSERT_FALSE(oracle.ok());
    const CspViolation v = oracle.violations().front();
    EXPECT_EQ(v.kind, CspViolation::Kind::CommitOrder);
    EXPECT_EQ(v.first, 5);
    EXPECT_EQ(v.second, 2);
    EXPECT_EQ(v.stage, 1);
}

TEST(CspOracle, ChainsAreIndependent)
{
    CspOracle oracle;
    oracle.observeCommit(LayerId{0, 0}.key(), 2, 0, 0);
    oracle.observeCommit(LayerId{1, 0}.key(), 1, 0, 0);
    oracle.observeCommit(LayerId{0, 0}.key(), 4, 1, 0);
    oracle.observeCommit(LayerId{1, 0}.key(), 3, 1, 0);
    EXPECT_TRUE(oracle.ok());
}

TEST(CspOracle, AttachObservesRealCommitGate)
{
    CommitGate gate;
    CommitGate::Claim first = gate.registerActivation(kLayer.key(), 2);
    CommitGate::Claim second = gate.registerActivation(kLayer.key(), 5);
    CspOracle oracle;
    oracle.attach(gate);
    gate.commit(first, 0);
    gate.commit(second, 1);
    EXPECT_TRUE(oracle.ok());
    EXPECT_EQ(oracle.observedCommits(), 2u);
}

TEST(CspOracle, ClearResetsEverything)
{
    CspOracle oracle;
    oracle.auditLayer(kLayer, history({{3, W, 0}}));
    oracle.observeCommit(kLayer.key(), 3, 1, 0);
    EXPECT_FALSE(oracle.ok());
    oracle.clear();
    EXPECT_TRUE(oracle.ok());
    EXPECT_EQ(oracle.auditedLayers(), 0u);
    EXPECT_EQ(oracle.auditedRecords(), 0u);
    EXPECT_EQ(oracle.observedCommits(), 0u);
    // Chain cursors were dropped too: rank 0 is fresh again.
    oracle.observeCommit(kLayer.key(), 3, 0, 0);
    EXPECT_TRUE(oracle.ok());
}
