/**
 * @file
 * SearchService acceptance: N concurrent supernet searches
 * multiplexed over one shared StageWorker pool, each bitwise
 * identical to its solo run, each CSP-clean under a live per-job
 * oracle, with one tenant's faults — up to retry exhaustion — never
 * touching its neighbors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/engine.h"
#include "exec/parallel_runtime.h"
#include "serve/service.h"
#include "train/param_store.h"
#include "train/run_checkpoint.h"
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

TEST(ServeService, FinishesOverlapTrainingAndMatchSolo)
{
    // Jobs of 4, 8 and 24 steps on one 2-stage pool: the short jobs'
    // post-run searches run on finisher threads while the long one
    // keeps training. Every job still lands on its solo weights,
    // search accuracy and winner.
    constexpr int kStages = 2;
    std::vector<JobSpec> specs = {
        job("NLP.c1", 11, 4),
        job("CV.c1", 3, 8),
        job("NLP.c1", 5, 24),
    };
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
        const RunResult &r = as.service->job(ids[i])->result();
        RunResult solo = soloRun(specs[i].space, specs[i].seed,
                                 specs[i].steps, kStages);
        EXPECT_EQ(r.supernetHash, solo.supernetHash);
        EXPECT_EQ(r.searchAccuracy, solo.searchAccuracy);
        EXPECT_EQ(r.bestSubnet, solo.bestSubnet);
        EXPECT_EQ(r.sampled.size(), static_cast<std::size_t>(
                                        specs[i].steps));
    }
}

/** Write job @p spec's final-barrier checkpoint to its ckptPath. */
void
writeFinalCheckpoint(const JobSpec &spec, int stages)
{
    std::remove(spec.ckptPath.c_str());
    ServiceConfig sc;
    sc.numStages = stages;
    SearchService service(sc);
    std::string why;
    ASSERT_GT(service.submit(spec, &why), 0) << why;
    service.drain();
    ASSERT_EQ(service.run(), SearchService::AllDone)
        << service.serviceError();
    ASSERT_TRUE(std::ifstream(spec.ckptPath).good());
}

TEST(ServeService, CancelAfterLastCompletionIsIgnored)
{
    // A job resumed at its final barrier applies its last completion
    // at admission. A cancel that reaches it after that point — here
    // sent by the neighbor's first gate commit, which can only happen
    // once the pool runs — leaves it Done, and the neighbor bitwise
    // unchanged.
    constexpr int kStages = 2;
    JobSpec resumed = job("NLP.c1", 11, 12);
    resumed.ckptInterval = 4;
    resumed.ckptPath =
        ::testing::TempDir() + "naspipe_cancel_after_last.ckpt";
    writeFinalCheckpoint(resumed, kStages);

    ServiceConfig sc;
    sc.numStages = kStages;
    SearchService *svc = nullptr;
    std::once_flag cancelled;
    sc.commitObserver = [&](int jobId, std::uint64_t, SubnetId,
                            std::size_t, int) {
        if (jobId == 2)
            std::call_once(cancelled, [&] { svc->cancel(1); });
    };
    SearchService service(sc);
    svc = &service;
    std::string why;
    std::vector<int> ids = service.submitBatch(
        {resumed, job("CV.c1", 3, 16)}, &why);
    ASSERT_EQ(ids, (std::vector<int>{1, 2})) << why;
    service.drain();
    ASSERT_EQ(service.run(), SearchService::AllDone)
        << service.serviceError();

    const ServeJob *j1 = service.job(1);
    ASSERT_EQ(j1->state(), JobState::Done) << j1->error();
    EXPECT_FALSE(j1->cancelRequested());
    RunResult solo1 = soloRun("NLP.c1", 11, 12, kStages);
    EXPECT_EQ(j1->result().supernetHash, solo1.supernetHash);
    EXPECT_EQ(j1->result().bestSubnet, solo1.bestSubnet);
    const ServeJob *j2 = service.job(2);
    ASSERT_EQ(j2->state(), JobState::Done) << j2->error();
    RunResult solo2 = soloRun("CV.c1", 3, 16, kStages);
    EXPECT_EQ(j2->result().supernetHash, solo2.supernetHash);
    EXPECT_EQ(j2->result().losses, solo2.losses);
    EXPECT_EQ(j2->result().bestSubnet, solo2.bestSubnet);

    // The same edge without a service, so the finishing window is
    // certain to be hit: the cancel lands between the last
    // completion and complete().
    ServeJob direct(1, resumed,
                    ServeJob::textConfig(resumed, kStages));
    ServeJob::PoolHooks hooks;
    hooks.dispatch = [](std::shared_ptr<const SubnetRun>) {
        FAIL() << "a job resumed at its end dispatched a subnet";
    };
    ASSERT_TRUE(direct.start(hooks, 0.0));
    ASSERT_TRUE(direct.finishing());
    EXPECT_EQ(direct.state(), JobState::Draining);
    direct.requestCancel();
    EXPECT_FALSE(direct.cancelRequested());
    EXPECT_TRUE(direct.finishing());
    direct.complete(direct.collectResult());
    EXPECT_EQ(direct.state(), JobState::Done);
    EXPECT_EQ(direct.supernetHash(), solo1.supernetHash);
    std::remove(resumed.ckptPath.c_str());
}

TEST(ServeService, QueuedAdmissionReplaysAcrossReruns)
{
    // Two 2-wide windows fit the budget, so each of jobs 3-5 waits
    // for a running job to apply its last completion. The window is
    // released right there, not when the finisher hands the result
    // back (the long searches make that point drift by several
    // completions), so every admission point — and with it every
    // job's ticket range — is the same on every rerun.
    constexpr int kStages = 2;
    std::vector<JobSpec> specs = {
        job("NLP.c1", 11, 64), job("CV.c1", 3, 96),
        job("NLP.c1", 5, 48),  job("CV.c1", 9, 32),
        job("NLP.c1", 7, 8),
    };
    for (JobSpec &s : specs)
        s.maxInflight = 2;
    struct Outcome {
        std::uint64_t first, last, hash;
        bool operator==(const Outcome &o) const
        {
            return first == o.first && last == o.last &&
                   hash == o.hash;
        }
    };
    std::vector<std::vector<Outcome>> runs;
    for (int rerun = 0; rerun < 5; rerun++) {
        ServiceConfig sc;
        sc.numStages = kStages;
        sc.maxTotalInflight = 4;
        SearchService service(sc);
        std::string why;
        std::vector<int> ids = service.submitBatch(specs, &why);
        ASSERT_EQ(ids.size(), specs.size()) << why;
        service.drain();
        ASSERT_EQ(service.run(), SearchService::AllDone)
            << service.serviceError();
        std::vector<Outcome> outcome;
        for (int id : ids) {
            const ServeJob *j = service.job(id);
            outcome.push_back(
                {j->firstTicket(), j->lastTicket(), j->supernetHash()});
        }
        runs.push_back(outcome);
    }
    // Jobs 3-5 were queued: their first tickets follow jobs 1-2's.
    for (std::size_t i = 2; i < specs.size(); i++) {
        EXPECT_GT(runs[0][i].first, runs[0][0].first);
        EXPECT_GT(runs[0][i].first, runs[0][1].first);
    }
    for (int rerun = 1; rerun < 5; rerun++)
        EXPECT_TRUE(runs[static_cast<std::size_t>(rerun)] == runs[0])
            << "rerun " << rerun << " admitted differently";
}

TEST(ServeService, FinishAssertionFailsOnlyItsJob)
{
    // A final-barrier checkpoint whose weights are all NaN (and whose
    // checksums are valid) resumes at its end, so the job finishes at
    // admission. Every candidate then evaluates to NaN and the search
    // asserts on a finisher thread. That fails the job with the
    // assertion's message; its neighbor in the batch trains on to
    // its solo hash, and run() reports a failed job.
    constexpr int kStages = 2;
    JobSpec spec = job("NLP.c1", 11, 12);
    spec.ckptInterval = 4;
    spec.ckptPath = ::testing::TempDir() + "naspipe_nan_final.ckpt";
    writeFinalCheckpoint(spec, kStages);

    SearchSpace space = makeSpaceByName(spec.space);
    RunCheckpoint ckpt;
    ASSERT_TRUE(ckpt.loadFile(spec.ckptPath));
    ParameterStore store(space, spec.seed, spec.precision);
    ASSERT_TRUE(store.load(ckpt.storeBytes));
    store.materializeAll();
    for (int b = 0; b < space.numBlocks(); b++) {
        for (int c = 0; c < space.choicesPerBlock(); c++) {
            if (!space.parameterized(b, c))
                continue;
            LayerParams &p = store.write(
                LayerId{static_cast<std::uint32_t>(b),
                        static_cast<std::uint32_t>(c)},
                0);
            std::fill(p.weight.data().begin(), p.weight.data().end(),
                      std::numeric_limits<float>::quiet_NaN());
        }
    }
    ckpt.storeBytes = store.serialize();
    ASSERT_TRUE(ckpt.saveFileAtomic(spec.ckptPath));

    ServiceConfig sc;
    sc.numStages = kStages;
    SearchService service(sc);
    std::string why;
    std::vector<int> ids =
        service.submitBatch({spec, job("CV.c1", 3, 16)}, &why);
    ASSERT_EQ(ids, (std::vector<int>{1, 2})) << why;
    service.drain();
    EXPECT_EQ(service.run(), SearchService::JobFailed)
        << service.serviceError();

    const ServeJob *poisoned = service.job(1);
    ASSERT_NE(poisoned, nullptr);
    EXPECT_EQ(poisoned->state(), JobState::Failed);
    EXPECT_NE(poisoned->error().find("non-negative"), std::string::npos)
        << poisoned->error();
    const ServeJob *neighbor = service.job(2);
    ASSERT_NE(neighbor, nullptr);
    ASSERT_EQ(neighbor->state(), JobState::Done) << neighbor->error();
    EXPECT_EQ(neighbor->result().supernetHash,
              soloRun("CV.c1", 3, 16, kStages).supernetHash);
    std::remove(spec.ckptPath.c_str());
}

TEST(ServeService, TimingExportCoversCoordinatorAndFinishers)
{
    ServiceConfig sc;
    sc.numStages = 2;
    SearchService service(sc);
    std::string why;
    ASSERT_EQ(service.submitBatch({job("NLP.c1", 11, 6),
                                   job("CV.c1", 3, 6)},
                                  &why)
                  .size(),
              2u)
        << why;
    service.drain();
    ASSERT_EQ(service.run(), SearchService::AllDone);
    std::string full = service.exportMetricsJson(false);
    std::string stable = service.exportMetricsJson(true);
    for (const char *key :
         {"\"serve/coordinator_busy_s\"", "\"serve/finish_s\""}) {
        EXPECT_NE(full.find(key), std::string::npos) << key;
        EXPECT_EQ(stable.find(key), std::string::npos) << key;
    }
}

TEST(JobFinisher, EveryResultComesBackOnce)
{
    JobFinisher finisher;
    auto result = [](std::uint64_t hash) {
        return [hash] {
            RunResult r;
            r.supernetHash = hash;
            return r;
        };
    };
    // One finish at a time.
    for (int id = 1; id <= 3; id++) {
        finisher.post(id, result(static_cast<std::uint64_t>(id)));
        std::vector<JobFinisher::Finished> done = finisher.wait();
        ASSERT_EQ(done.size(), 1u);
        EXPECT_EQ(done[0].jobId, id);
        EXPECT_EQ(done[0].result.supernetHash,
                  static_cast<std::uint64_t>(id));
        EXPECT_FALSE(done[0].error);
    }
    EXPECT_EQ(finisher.outstanding(), 0);

    // A burst larger than the thread count: every result comes back
    // once.
    const int burst =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency())) +
        2;
    for (int id = 10; id < 10 + burst; id++)
        finisher.post(id, result(static_cast<std::uint64_t>(id)));
    std::set<int> seen;
    while (finisher.outstanding() > 0) {
        for (JobFinisher::Finished &f : finisher.wait()) {
            EXPECT_EQ(f.result.supernetHash,
                      static_cast<std::uint64_t>(f.jobId));
            EXPECT_TRUE(seen.insert(f.jobId).second);
        }
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(burst));
    EXPECT_TRUE(finisher.poll().empty());

    // A throwing finish comes back as an error, not a crash.
    finisher.post(99, []() -> RunResult {
        NASPIPE_ASSERT(false, "finisher test");
        return {};
    });
    std::vector<JobFinisher::Finished> done = finisher.wait();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].jobId, 99);
    EXPECT_THROW(std::rethrow_exception(done[0].error),
                 std::logic_error);
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

/** Occurrences of @p needle in @p text. */
int
countOf(const std::string &text, const std::string &needle)
{
    int n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size()))
        n++;
    return n;
}

TEST(ServeService, ADyingWorkerFailsTheServiceAndEveryLiveJob)
{
    // Job 2's first commit throws on a worker thread: that worker
    // dies, which is a pool incident, so every live tenant is lost.
    ServiceConfig sc;
    sc.numStages = 2;
    sc.commitObserver = [](int jobId, std::uint64_t, SubnetId,
                           std::size_t, int) {
        if (jobId == 2)
            throw std::runtime_error("tenant observer gave up");
    };
    SearchService service(sc);
    std::string why;
    std::vector<int> ids = service.submitBatch(
        {job("NLP.c1", 11, 48), job("CV.c1", 3, 24)}, &why);
    ASSERT_EQ(ids.size(), 2u) << why;
    service.drain();
    EXPECT_EQ(service.run(), SearchService::ServiceFailed);
    EXPECT_NE(service.serviceError().find("tenant observer gave up"),
              std::string::npos)
        << service.serviceError();
    EXPECT_NE(service.serviceError().find("stage "), std::string::npos)
        << service.serviceError();
    for (const JobStatus &s : service.status()) {
        SCOPED_TRACE("job " + std::to_string(s.id));
        EXPECT_EQ(s.state, JobState::Failed);
        EXPECT_EQ(s.error.rfind("service failure: ", 0), 0u)
            << s.error;
    }
}

TEST(ServeService, TwoDyingWorkersMakeOneIncident)
{
    // Every commit throws, except the last stage's commits of the
    // first subnet: its backward reaches stage 0, so both workers can
    // die. Either way run() ends once, on one incident, and joins.
    ServiceConfig sc;
    sc.numStages = 2;
    std::atomic<int> throws{0};
    sc.commitObserver = [&throws](int, std::uint64_t, SubnetId subnet,
                                  std::size_t, int stage) {
        if (stage == 1 && subnet == 0)
            return;
        throws++;
        throw std::runtime_error("every commit throws");
    };
    SearchService service(sc);
    std::string why;
    ASSERT_GT(service.submit(job("NLP.c1", 11, 32), &why), 0) << why;
    service.drain();
    EXPECT_EQ(service.run(), SearchService::ServiceFailed);
    EXPECT_GE(throws.load(), 1);
    EXPECT_LE(throws.load(), 2);  // one per worker, then it is gone
    EXPECT_EQ(countOf(service.serviceError(), "every commit throws"),
              1)
        << service.serviceError();
    EXPECT_EQ(service.job(1)->state(), JobState::Failed);
}

} // namespace
} // namespace serve
} // namespace naspipe
