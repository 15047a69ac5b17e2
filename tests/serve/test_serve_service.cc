/**
 * @file
 * SearchService acceptance: N concurrent supernet searches
 * multiplexed over one shared StageWorker pool, each bitwise
 * identical to its solo run, each CSP-clean under a live per-job
 * oracle, with one tenant's faults — up to retry exhaustion — never
 * touching its neighbors.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "exec/parallel_runtime.h"
#include "serve/service.h"
#include "verify/csp_oracle.h"

namespace naspipe {
namespace serve {
namespace {

/** Solo baseline: the same (space, seed, steps) on a dedicated
 *  threaded executor with the same stage count. */
RunResult
soloRun(const std::string &spaceName, std::uint64_t seed, int steps,
        int stages)
{
    SearchSpace space = makeSpaceByName(spaceName);
    RuntimeConfig c;
    c.system = naspipeSystem();
    c.numStages = stages;
    c.totalSubnets = steps;
    c.seed = seed;
    RunResult result = runTrainingThreaded(space, c);
    EXPECT_FALSE(result.failed) << result.error;
    return result;
}

JobSpec
job(const std::string &space, std::uint64_t seed, int steps)
{
    JobSpec spec;
    spec.space = space;
    spec.seed = seed;
    spec.steps = steps;
    return spec;
}

/**
 * Service fixture with one live CspOracle per expected job ID: every
 * job-gate commit streams into that job's oracle, and a recovery
 * resets only that job's chain cursors (its gate was recreated).
 */
struct AuditedService {
    explicit AuditedService(ServiceConfig config, int expectedJobs)
    {
        for (int id = 1; id <= expectedJobs; id++)
            oracles[id];  // pre-create: the map is read-only while
                          // worker threads stream commits into it
        config.commitObserver = [this](int jobId,
                                       std::uint64_t layerKey,
                                       SubnetId subnet,
                                       std::size_t rank, int stage) {
            oracles.at(jobId).observeCommit(layerKey, subnet, rank,
                                            stage);
        };
        config.recoveryObserver = [this](int jobId, int) {
            oracles.at(jobId).resetLiveChains();
        };
        config.accessHistory = true;  // audit() replays each job's log
        service = std::make_unique<SearchService>(config);
    }

    /** Full per-job CSP audit: live chains plus the post-hoc replay
     *  of the job's parameter-store access log. */
    void audit(int jobId)
    {
        const ServeJob *j = service->job(jobId);
        ASSERT_NE(j, nullptr);
        ASSERT_EQ(j->state(), JobState::Done)
            << "job " << jobId << ": " << j->error();
        CspOracle &oracle = oracles.at(jobId);
        ASSERT_TRUE(j->result().store);
        EXPECT_TRUE(oracle.auditLog(j->result().store->accessLog()))
            << "job " << jobId << ": " << oracle.report();
        EXPECT_TRUE(oracle.ok())
            << "job " << jobId << ": " << oracle.report();
    }

    std::map<int, CspOracle> oracles;
    std::unique_ptr<SearchService> service;
};

TEST(ServeService, FourMixedJobsBitwiseIdenticalToSolo)
{
    // The acceptance bar: 4 concurrent mixed NLP.c1/CV.c1 searches
    // on ONE shared 3-stage pool, each job's weights, losses and
    // best subnet bitwise identical to its solo run, each job
    // CSP-clean under its own live oracle.
    constexpr int kStages = 3;
    std::vector<JobSpec> specs = {
        job("NLP.c1", 11, 12),
        job("CV.c1", 3, 10),
        job("NLP.c1", 5, 8),
        job("CV.c1", 9, 12),
    };
    specs[2].priority = 3;  // uneven WRR shares must not matter

    ServiceConfig sc;
    sc.numStages = kStages;
    AuditedService as(sc, static_cast<int>(specs.size()));
    std::string why;
    std::vector<int> ids = as.service->submitBatch(specs, &why);
    ASSERT_EQ(ids.size(), specs.size()) << why;
    as.service->drain();
    ASSERT_EQ(as.service->run(), SearchService::AllDone)
        << as.service->serviceError();

    for (std::size_t i = 0; i < specs.size(); i++) {
        SCOPED_TRACE("job " + std::to_string(ids[i]));
        as.audit(ids[i]);
        const ServeJob *j = as.service->job(ids[i]);
        RunResult solo = soloRun(specs[i].space, specs[i].seed,
                                 specs[i].steps, kStages);
        EXPECT_EQ(j->result().supernetHash, solo.supernetHash);
        EXPECT_EQ(j->result().losses, solo.losses);
        EXPECT_EQ(j->result().bestSubnet, solo.bestSubnet);
    }
}

TEST(ServeService, CrashRecoveryIsBitwiseAndJobScoped)
{
    // Job 1 crashes at its 6th completion, rolls back to its drained
    // checkpoint at 4 and replays — and still matches its fault-free
    // solo hash bitwise. Job 2 shares every worker with it and never
    // notices.
    constexpr int kStages = 2;
    JobSpec crashy = job("NLP.c1", 11, 12);
    crashy.ckptInterval = 4;
    crashy.recoveryRetries = 2;
    FaultSpec f;
    f.kind = FaultKind::GpuCrash;
    f.atStep = 6;
    crashy.faults.push_back(f);
    JobSpec neighbor = job("CV.c1", 3, 10);

    ServiceConfig sc;
    sc.numStages = kStages;
    AuditedService as(sc, 2);
    std::string why;
    std::vector<int> ids =
        as.service->submitBatch({crashy, neighbor}, &why);
    ASSERT_EQ(ids.size(), 2u) << why;
    as.service->drain();
    ASSERT_EQ(as.service->run(), SearchService::AllDone)
        << as.service->serviceError();

    as.audit(ids[0]);
    as.audit(ids[1]);
    const ServeJob *j1 = as.service->job(ids[0]);
    EXPECT_EQ(j1->recoveries(), 1);
    EXPECT_GT(j1->subnetsReplayed(), 0);
    RunResult solo1 = soloRun("NLP.c1", 11, 12, kStages);
    EXPECT_EQ(j1->result().supernetHash, solo1.supernetHash);
    EXPECT_EQ(j1->result().losses, solo1.losses);

    const ServeJob *j2 = as.service->job(ids[1]);
    EXPECT_EQ(j2->recoveries(), 0);
    RunResult solo2 = soloRun("CV.c1", 3, 10, kStages);
    EXPECT_EQ(j2->result().supernetHash, solo2.supernetHash);
    EXPECT_EQ(j2->result().losses, solo2.losses);
}

TEST(ServeService, RetryExhaustionFailsOneJobOnly)
{
    // retries=0: the first crash exhausts the budget. The service
    // reports the per-job exit-5 outcome, the victim is Failed with
    // the retries-exhausted flag, and the neighbor still matches its
    // solo run bitwise — the shared workers never went down.
    constexpr int kStages = 2;
    JobSpec doomed = job("NLP.c1", 11, 12);
    doomed.ckptInterval = 4;
    doomed.recoveryRetries = 0;
    FaultSpec f;
    f.kind = FaultKind::GpuCrash;
    f.atStep = 6;
    doomed.faults.push_back(f);
    JobSpec neighbor = job("CV.c1", 3, 10);

    ServiceConfig sc;
    sc.numStages = kStages;
    AuditedService as(sc, 2);
    std::string why;
    std::vector<int> ids =
        as.service->submitBatch({doomed, neighbor}, &why);
    ASSERT_EQ(ids.size(), 2u) << why;
    as.service->drain();
    EXPECT_EQ(as.service->run(), SearchService::RetriesExhausted);

    const ServeJob *j1 = as.service->job(ids[0]);
    ASSERT_NE(j1, nullptr);
    EXPECT_EQ(j1->state(), JobState::Failed);
    EXPECT_TRUE(j1->retriesExhausted());
    EXPECT_NE(j1->error().find("retries exhausted"),
              std::string::npos)
        << j1->error();

    as.audit(ids[1]);
    RunResult solo2 = soloRun("CV.c1", 3, 10, kStages);
    EXPECT_EQ(as.service->job(ids[1])->result().supernetHash,
              solo2.supernetHash);
}

TEST(ServeService, OneStagePoolIgnoresLinkDrop)
{
    // A one-stage pipeline has no links, so a drop is a no-op, as
    // it is in the simulator: no recovery, nothing replayed.
    JobSpec spec = job("NLP.c1", 3, 24);
    spec.ckptInterval = 8;
    FaultSpec drop;
    drop.kind = FaultKind::LinkDrop;
    drop.atStep = 12;
    spec.faults.push_back(drop);

    ServiceConfig sc;
    sc.numStages = 1;
    AuditedService as(sc, 1);
    std::string why;
    int id = as.service->submit(spec, &why);
    ASSERT_GT(id, 0) << why;
    as.service->drain();
    ASSERT_EQ(as.service->run(), SearchService::AllDone)
        << as.service->serviceError();
    as.audit(id);
    const ServeJob *j = as.service->job(id);
    EXPECT_EQ(j->recoveries(), 0);
    EXPECT_EQ(j->subnetsReplayed(), 0);

    SearchSpace space = makeSpaceByName("NLP.c1");
    RuntimeConfig c;
    c.system = naspipeSystem();
    c.numStages = 1;
    c.totalSubnets = spec.steps;
    c.seed = spec.seed;
    c.ckptInterval = spec.ckptInterval;
    c.faults = spec.faults;
    RunResult sim = runTraining(space, c);
    ASSERT_FALSE(sim.failed) << sim.error;
    EXPECT_EQ(j->recoveries(), sim.metrics.recoveries);
    EXPECT_EQ(j->subnetsReplayed(), sim.metrics.subnetsReplayed);
    EXPECT_EQ(j->result().metrics.faultsInjected,
              sim.metrics.faultsInjected);
    EXPECT_EQ(j->result().supernetHash, sim.supernetHash);
}

TEST(ServeService, InflightBudgetQueuesJobsDeterministically)
{
    // A budget that only fits one tenant at a time: jobs are admitted
    // in ID order as windows free up, and queueing changes nothing
    // about any job's weights.
    constexpr int kStages = 2;
    std::vector<JobSpec> specs = {
        job("NLP.c1", 11, 8),
        job("CV.c1", 3, 8),
        job("NLP.c1", 5, 8),
    };
    for (JobSpec &s : specs)
        s.maxInflight = 2;

    ServiceConfig sc;
    sc.numStages = kStages;
    sc.maxTotalInflight = 2;  // one 2-wide window at a time
    AuditedService as(sc, static_cast<int>(specs.size()));
    std::string why;
    std::vector<int> ids = as.service->submitBatch(specs, &why);
    ASSERT_EQ(ids.size(), specs.size()) << why;
    as.service->drain();
    ASSERT_EQ(as.service->run(), SearchService::AllDone)
        << as.service->serviceError();

    for (std::size_t i = 0; i < specs.size(); i++) {
        SCOPED_TRACE("job " + std::to_string(ids[i]));
        as.audit(ids[i]);
        RunResult solo = soloRun(specs[i].space, specs[i].seed,
                                 specs[i].steps, kStages);
        EXPECT_EQ(as.service->job(ids[i])->result().supernetHash,
                  solo.supernetHash);
    }
}

TEST(ServeService, CancelFailsTheJobAndSparesNeighbors)
{
    ServiceConfig sc;
    sc.numStages = 2;
    SearchService service(sc);
    std::string why;
    int keep = service.submit(job("NLP.c1", 11, 8), &why);
    ASSERT_GT(keep, 0) << why;
    int victim = service.submit(job("CV.c1", 3, 24), &why);
    ASSERT_GT(victim, 0) << why;
    ASSERT_TRUE(service.cancel(victim));
    EXPECT_FALSE(service.cancel(99));  // unknown ID
    service.drain();
    EXPECT_EQ(service.run(), SearchService::JobFailed);

    EXPECT_EQ(service.job(victim)->state(), JobState::Failed);
    EXPECT_NE(service.job(victim)->error().find("cancelled"),
              std::string::npos);
    EXPECT_FALSE(service.job(victim)->retriesExhausted());

    EXPECT_EQ(service.job(keep)->state(), JobState::Done);
    RunResult solo = soloRun("NLP.c1", 11, 8, 2);
    EXPECT_EQ(service.job(keep)->result().supernetHash,
              solo.supernetHash);
}

TEST(ServeService, SubmitValidatesAndBatchIsAtomic)
{
    ServiceConfig sc;
    sc.numStages = 2;
    SearchService service(sc);
    std::string why;
    JobSpec bad = job("AUDIO.c9", 1, 8);
    EXPECT_EQ(service.submit(bad, &why), -1);
    EXPECT_NE(why.find("unknown search space"), std::string::npos);

    // All-or-nothing: one bad spec rejects the whole batch.
    std::vector<int> ids =
        service.submitBatch({job("NLP.c1", 11, 8), bad}, &why);
    EXPECT_TRUE(ids.empty());
    EXPECT_TRUE(service.status().empty());

    // An empty, drained service finishes immediately.
    service.drain();
    EXPECT_EQ(service.run(), SearchService::AllDone);
}

TEST(ServeService, ResubmitResumesFromPersistedCheckpointBitwise)
{
    // The interrupted-then-resubmitted tenant: a job that crashes
    // out of its retry budget leaves its last drained checkpoint at
    // ckpt-path; resubmitting the same spec against the same path
    // resumes from that barrier and finishes on EXACTLY the weights,
    // losses and winner of a never-interrupted run.
    constexpr int kStages = 2;
    const std::string path =
        ::testing::TempDir() + "naspipe_serve_resume.ckpt";
    std::remove(path.c_str());

    JobSpec spec = job("NLP.c1", 11, 12);
    spec.ckptInterval = 4;
    spec.ckptPath = path;
    spec.recoveryRetries = 0;
    FaultSpec f;
    f.kind = FaultKind::GpuCrash;
    f.atStep = 6;
    spec.faults.push_back(f);

    {
        // First submission: no checkpoint at the path yet, so this
        // is a fresh start; the crash at completion 6 exhausts the
        // zero-retry budget after the barrier-4 checkpoint persisted.
        ServiceConfig sc;
        sc.numStages = kStages;
        SearchService service(sc);
        std::string why;
        int id = service.submit(spec, &why);
        ASSERT_GT(id, 0) << why;
        service.drain();
        EXPECT_EQ(service.run(), SearchService::RetriesExhausted);
        EXPECT_EQ(service.job(id)->state(), JobState::Failed);
    }
    ASSERT_TRUE(std::ifstream(path).good())
        << "interrupted job left no checkpoint at " << path;

    JobSpec again = spec;
    again.faults.clear();
    {
        ServiceConfig sc;
        sc.numStages = kStages;
        SearchService service(sc);
        std::string why;
        int id = service.submit(again, &why);
        ASSERT_GT(id, 0) << why;
        service.drain();
        ASSERT_EQ(service.run(), SearchService::AllDone)
            << service.serviceError();
        const ServeJob *j = service.job(id);
        ASSERT_NE(j, nullptr);
        ASSERT_EQ(j->state(), JobState::Done) << j->error();

        RunResult solo = soloRun("NLP.c1", 11, 12, kStages);
        EXPECT_EQ(j->result().supernetHash, solo.supernetHash);
        EXPECT_EQ(j->result().losses, solo.losses);
        EXPECT_EQ(j->result().bestSubnet, solo.bestSubnet);
    }

    // The path now holds the final barrier's checkpoint: resubmitting
    // finishes at admission with nothing left to train.
    {
        ServiceConfig sc;
        sc.numStages = kStages;
        SearchService service(sc);
        std::string why;
        int id = service.submit(again, &why);
        ASSERT_GT(id, 0) << why;
        service.drain();
        ASSERT_EQ(service.run(), SearchService::AllDone)
            << service.serviceError();
        const ServeJob *j = service.job(id);
        ASSERT_EQ(j->state(), JobState::Done) << j->error();
        EXPECT_EQ(j->session().finished(), again.steps);
        RunResult solo = soloRun("NLP.c1", 11, 12, kStages);
        EXPECT_EQ(j->result().supernetHash, solo.supernetHash);
        EXPECT_EQ(j->result().losses, solo.losses);
    }

    // The checkpoint was written under fp32: the same job resubmitted
    // with another precision must not resume from it.
    {
        JobSpec fp16 = again;
        fp16.precision = kernels::PrecisionMode::Fp16Rne;
        ServiceConfig sc;
        sc.numStages = kStages;
        SearchService service(sc);
        std::string why;
        int id = service.submit(fp16, &why);
        ASSERT_GT(id, 0) << why;
        service.drain();
        EXPECT_EQ(service.run(), SearchService::JobFailed);
        ASSERT_EQ(service.job(id)->state(), JobState::Failed);
        EXPECT_NE(service.job(id)->error().find("cannot resume"),
                  std::string::npos)
            << service.job(id)->error();
    }

    // A path that holds bytes which are NOT a checkpoint must fail
    // the job loudly instead of silently retraining from subnet 0.
    {
        std::ofstream(path, std::ios::trunc) << "not a checkpoint";
        ServiceConfig sc;
        sc.numStages = kStages;
        SearchService service(sc);
        std::string why;
        int id = service.submit(again, &why);
        ASSERT_GT(id, 0) << why;
        service.drain();
        EXPECT_EQ(service.run(), SearchService::JobFailed);
        ASSERT_EQ(service.job(id)->state(), JobState::Failed);
        EXPECT_NE(service.job(id)->error().find("cannot resume"),
                  std::string::npos)
            << service.job(id)->error();
    }
    std::remove(path.c_str());
}

TEST(ServeService, RerunMetricsExportIsByteIdentical)
{
    // The CI rerun gate in library form: two services, same specs,
    // stable-only exports compare equal as strings.
    auto once = [] {
        ServiceConfig sc;
        sc.numStages = 2;
        SearchService service(sc);
        std::vector<JobSpec> specs = {
            job("NLP.c1", 11, 10),
            job("CV.c1", 3, 8),
        };
        std::string why;
        EXPECT_EQ(service.submitBatch(specs, &why).size(), 2u)
            << why;
        service.drain();
        EXPECT_EQ(service.run(), SearchService::AllDone)
            << service.serviceError();
        return service.exportMetricsJson(true);
    };
    std::string first = once();
    std::string second = once();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
    EXPECT_NE(first.find("\"job/1/"), std::string::npos);
    EXPECT_NE(first.find("\"serve/jobs\""), std::string::npos);
    EXPECT_NE(first.find("\"quality/supernet_hash\""),
              std::string::npos);
}

} // namespace
} // namespace serve
} // namespace naspipe
