/**
 * @file
 * ServeJob units that need no pool: the job-spec parser and
 * validator, and the serve state-machine transition matrix.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/job.h"

namespace naspipe {
namespace serve {
namespace {

TEST(ServeJobSpec, ParseFullSpec)
{
    JobSpec spec;
    std::string why;
    ASSERT_TRUE(parseJobSpec("name=bert,space=CV.c1,seed=42,"
                             "steps=16,priority=3,ckpt=4,"
                             "ckpt-path=/tmp/j.ckpt,retries=2,"
                             "window=5,fault=crash@6",
                             spec, &why))
        << why;
    EXPECT_EQ(spec.name, "bert");
    EXPECT_EQ(spec.space, "CV.c1");
    EXPECT_EQ(spec.seed, 42u);
    EXPECT_EQ(spec.steps, 16);
    EXPECT_EQ(spec.priority, 3);
    EXPECT_EQ(spec.ckptInterval, 4);
    EXPECT_EQ(spec.ckptPath, "/tmp/j.ckpt");
    EXPECT_EQ(spec.recoveryRetries, 2);
    EXPECT_EQ(spec.maxInflight, 5);
    ASSERT_EQ(spec.faults.size(), 1u);
    EXPECT_EQ(spec.faults[0].kind, FaultKind::GpuCrash);
    EXPECT_EQ(spec.faults[0].atStep, 6);
}

TEST(ServeJobSpec, ParseDefaults)
{
    JobSpec spec;
    ASSERT_TRUE(parseJobSpec("seed=11", spec));
    EXPECT_EQ(spec.space, "NLP.c1");
    EXPECT_EQ(spec.seed, 11u);
    EXPECT_EQ(spec.steps, 32);
    EXPECT_EQ(spec.priority, 1);
    EXPECT_EQ(spec.recoveryRetries, 3);
    EXPECT_TRUE(spec.faults.empty());
}

TEST(ServeJobSpec, ParseRepeatedFaults)
{
    JobSpec spec;
    ASSERT_TRUE(
        parseJobSpec("fault=crash@4,fault=drop@9", spec));
    ASSERT_EQ(spec.faults.size(), 2u);
    EXPECT_EQ(spec.faults[0].atStep, 4);
    EXPECT_EQ(spec.faults[1].kind, FaultKind::LinkDrop);
    EXPECT_EQ(spec.faults[1].atStep, 9);
}

TEST(ServeJobSpec, ParseErrors)
{
    JobSpec spec;
    std::string why;
    EXPECT_FALSE(parseJobSpec("steps", spec, &why));
    EXPECT_NE(why.find("key=value"), std::string::npos);
    EXPECT_FALSE(parseJobSpec("steps=", spec, &why));
    EXPECT_NE(why.find("empty value"), std::string::npos);
    EXPECT_FALSE(parseJobSpec("steps=abc", spec, &why));
    EXPECT_NE(why.find("non-numeric"), std::string::npos);
    EXPECT_FALSE(parseJobSpec("bogus=1", spec, &why));
    EXPECT_NE(why.find("unknown job spec key"), std::string::npos);
    EXPECT_FALSE(parseJobSpec("fault=boom@3", spec, &why));
    EXPECT_NE(why.find("bad fault"), std::string::npos);
}

TEST(ServeJobSpec, ParseRejectsMalformed)
{
    // Each of these used to be accepted with a silently changed value
    // (32, 2, 0, 2^64 - 1 and a crash at step 1 respectively).
    for (const char *text :
         {"steps=32x", "priority=2.5", "window=0x10", "seed=-1",
          "fault=crash@4294967297", "steps=4294967297", "ckpt= 4",
          "retries=+2"}) {
        JobSpec spec;
        std::string why;
        EXPECT_FALSE(parseJobSpec(text, spec, &why)) << text;
        EXPECT_FALSE(why.empty()) << text;
    }
}

TEST(ServeJobSpec, ValidateAcceptsDefaults)
{
    JobSpec spec;
    std::string why;
    EXPECT_TRUE(validateJobSpec(spec, &why)) << why;
}

TEST(ServeJobSpec, ValidateRejectsUnknownSpace)
{
    JobSpec spec;
    spec.space = "AUDIO.c9";
    std::string why;
    EXPECT_FALSE(validateJobSpec(spec, &why));
    EXPECT_NE(why.find("unknown search space"), std::string::npos);
}

TEST(ServeJobSpec, ValidateRejectsTransientFaults)
{
    // Transient faults (stall/degrade) slow a shared *worker*, which
    // would perturb every tenant — only fail-stop kinds are
    // job-scoped.
    for (FaultKind kind :
         {FaultKind::StageStall, FaultKind::LinkDegrade}) {
        JobSpec spec;
        FaultSpec f;
        f.kind = kind;
        f.atStep = 3;
        spec.faults.push_back(f);
        std::string why;
        EXPECT_FALSE(validateJobSpec(spec, &why));
        EXPECT_NE(why.find("not job-scoped"), std::string::npos);
    }
    // Fail-stop kinds pass.
    for (FaultKind kind :
         {FaultKind::GpuCrash, FaultKind::LinkDrop}) {
        JobSpec spec;
        FaultSpec f;
        f.kind = kind;
        f.atStep = 3;
        spec.faults.push_back(f);
        std::string why;
        EXPECT_TRUE(validateJobSpec(spec, &why)) << why;
    }
}

TEST(ServeJobSpec, ValidateRejectsBadNumerics)
{
    std::string why;
    {
        JobSpec spec;
        spec.steps = 0;
        EXPECT_FALSE(validateJobSpec(spec, &why));
    }
    {
        JobSpec spec;
        spec.priority = 0;
        EXPECT_FALSE(validateJobSpec(spec, &why));
    }
    {
        JobSpec spec;
        spec.recoveryRetries = -1;
        EXPECT_FALSE(validateJobSpec(spec, &why));
    }
    {
        JobSpec spec;
        FaultSpec f;
        f.atStep = 0;
        spec.faults.push_back(f);
        EXPECT_FALSE(validateJobSpec(spec, &why));
        EXPECT_NE(why.find("fault step"), std::string::npos);
    }
}

TEST(ServeJobState, TransitionMatrix)
{
    const std::vector<JobState> all = {
        JobState::Queued,   JobState::Admitted,
        JobState::Running,  JobState::Recovering,
        JobState::Draining, JobState::Done,
        JobState::Failed,
    };
    // The full legal-edge set; everything else must be rejected.
    auto legal = [](JobState from, JobState to) {
        using S = JobState;
        switch (from) {
        case S::Queued:
            return to == S::Admitted || to == S::Failed;
        case S::Admitted:
            return to == S::Running || to == S::Failed;
        case S::Running:
            return to == S::Draining || to == S::Recovering ||
                   to == S::Done || to == S::Failed;
        case S::Draining:
            return to == S::Recovering || to == S::Done ||
                   to == S::Failed;
        case S::Recovering:
            return to == S::Running || to == S::Failed;
        case S::Done:
        case S::Failed:
            return false;
        }
        return false;
    };
    for (JobState from : all) {
        for (JobState to : all) {
            EXPECT_EQ(jobTransitionAllowed(from, to),
                      legal(from, to))
                << jobStateName(from) << " -> "
                << jobStateName(to);
        }
    }
}

TEST(ServeJobState, NamesAreDistinct)
{
    const std::vector<JobState> all = {
        JobState::Queued,   JobState::Admitted,
        JobState::Running,  JobState::Recovering,
        JobState::Draining, JobState::Done,
        JobState::Failed,
    };
    std::vector<std::string> names;
    for (JobState s : all)
        names.push_back(jobStateName(s));
    for (std::size_t i = 0; i < names.size(); i++)
        for (std::size_t j = i + 1; j < names.size(); j++)
            EXPECT_NE(names[i], names[j]);
}

} // namespace
} // namespace serve
} // namespace naspipe
