/**
 * @file
 * naspipe_cli and naspipe_serve argument-parsing and exit-code
 * contract tests. Each case launches the real binary (paths injected
 * by CMake as NASPIPE_CLI_PATH and NASPIPE_SERVE_PATH) and checks the
 * documented exit codes: 0 success, 2 argument error / OOM, 3 run
 * failure, 4 CSP verification failure, 5 recovery retries exhausted.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>

namespace {

struct CliResult {
    int exitCode = -1;
    std::string output;  ///< stdout + stderr interleaved
};

CliResult
runBinary(const char *path, const std::string &args)
{
    std::string command = std::string(path) + " " + args + " 2>&1";
    CliResult result;
    FILE *pipe = popen(command.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << command;
    if (!pipe)
        return result;
    std::array<char, 512> buffer;
    while (fgets(buffer.data(), buffer.size(), pipe))
        result.output += buffer.data();
    int status = pclose(pipe);
    result.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return result;
}

CliResult
runCli(const std::string &args)
{
    return runBinary(NASPIPE_CLI_PATH, args);
}

CliResult
runServe(const std::string &args)
{
    return runBinary(NASPIPE_SERVE_PATH, args);
}

} // namespace

TEST(CliArgs, HelpExitsZeroAndPrintsUsage)
{
    CliResult r = runCli("--help");
    EXPECT_EQ(r.exitCode, 0);
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
    EXPECT_NE(r.output.find("--verify-csp"), std::string::npos);
    EXPECT_NE(r.output.find("--executor sim|threads"),
              std::string::npos);
}

TEST(CliArgs, UnknownArgumentExitsTwo)
{
    CliResult r = runCli("--no-such-flag");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_NE(r.output.find("unknown argument"), std::string::npos);
}

TEST(CliArgs, BadExecutorExitsTwo)
{
    CliResult r = runCli("--executor gpu");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_NE(r.output.find("want sim or threads"),
              std::string::npos);
}

TEST(CliArgs, MissingValueExitsTwo)
{
    EXPECT_EQ(runCli("--space").exitCode, 2);
    EXPECT_EQ(runCli("--seed").exitCode, 2);
}

TEST(CliArgs, OutOfRangeValueExitsTwo)
{
    EXPECT_EQ(runCli("--gpus 0").exitCode, 2);
    EXPECT_EQ(runCli("--steps -3").exitCode, 2);
    EXPECT_EQ(runCli("--seed banana").exitCode, 2);
}

TEST(CliArgs, BadFaultSpecExitsTwo)
{
    CliResult r = runCli("--inject-fault explode@5");
    EXPECT_EQ(r.exitCode, 2);
}

TEST(CliArgs, MissingResumeCheckpointExitsThree)
{
    CliResult r = runCli("--space CV.c1 --steps 8 --quiet "
                         "--resume /nonexistent/run.ckpt");
    EXPECT_EQ(r.exitCode, 3);
    EXPECT_NE(r.output.find("error:"), std::string::npos);
}

TEST(CliArgs, SimRunWithVerifyCspExitsZero)
{
    CliResult r =
        runCli("--space CV.c1 --steps 8 --verify-csp");
    EXPECT_EQ(r.exitCode, 0);
    EXPECT_NE(r.output.find("verify-csp  ok"), std::string::npos);
}

TEST(CliArgs, ThreadedRunWithVerifyCspExitsZero)
{
    CliResult r = runCli("--space CV.c1 --steps 8 --gpus 2 "
                         "--executor threads --verify-csp");
    EXPECT_EQ(r.exitCode, 0);
    EXPECT_NE(r.output.find("verify-csp  ok"), std::string::npos);
    // The threaded run observed live commits, not just the log.
    EXPECT_EQ(r.output.find(" 0 live commits"), std::string::npos);
}

TEST(CliArgs, QuietSuppressesTheReportBlock)
{
    CliResult r =
        runCli("--space CV.c1 --steps 8 --verify-csp --quiet");
    EXPECT_EQ(r.exitCode, 0);
    EXPECT_EQ(r.output.find("throughput"), std::string::npos);
}

TEST(CliArgs, FaultAndCheckpointFlagsParse)
{
    CliResult r = runCli("--space CV.c1 --steps 12 --quiet "
                         "--inject-fault crash@6 --ckpt-interval 4");
    EXPECT_EQ(r.exitCode, 0);
}

TEST(CliArgs, ThreadsRejectsNonCspSystemExitsTwo)
{
    // ParallelRuntime::supported()'s reason string surfaces verbatim
    // in the exit-2 diagnostic.
    CliResult r = runCli("--space CV.c1 --steps 8 --quiet "
                         "--executor threads --system gpipe");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_NE(r.output.find("threaded executor requires a CSP "
                            "system"),
              std::string::npos);
}

TEST(CliArgs, ThreadsCrashRecoversAndVerifiesCspExitsZero)
{
    // Fault injection is executor-agnostic now: a threaded run that
    // loses a stage worker recovers from the last drained checkpoint
    // and still passes the live + post-hoc CSP audit.
    CliResult r =
        runCli("--space CV.c1 --steps 12 --gpus 2 "
               "--executor threads --verify-csp --ckpt-interval 4 "
               "--inject-fault crash@6,stage=1");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("verify-csp  ok"), std::string::npos);
    EXPECT_NE(r.output.find("1 recoveries"), std::string::npos);
}

TEST(CliArgs, ThreadsRetriesExhaustedExitsFive)
{
    // --recovery-retries 0 refuses the first retry, so the first
    // fail-stop fault is terminal: the documented exit code 5.
    CliResult r =
        runCli("--space CV.c1 --steps 12 --gpus 2 --quiet "
               "--executor threads --ckpt-interval 4 "
               "--recovery-retries 0 --inject-fault crash@6,stage=1");
    EXPECT_EQ(r.exitCode, 5) << r.output;
    EXPECT_NE(r.output.find("recovery retries exhausted"),
              std::string::npos);
}

TEST(CliArgs, ThreadsCorruptResumeCheckpointExitsThree)
{
    // A corrupt checkpoint file must be a clean run failure (exit 3),
    // never an abort: the loader validates magic/version/checksum.
    std::string ckpt =
        ::testing::TempDir() + "naspipe_cli_corrupt.ckpt";
    {
        FILE *f = fopen(ckpt.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const char junk[] = "NOT A CHECKPOINT";
        fwrite(junk, 1, sizeof(junk), f);
        fclose(f);
    }
    CliResult r = runCli("--space CV.c1 --steps 8 --gpus 2 --quiet "
                         "--executor threads --resume " +
                         ckpt);
    EXPECT_EQ(r.exitCode, 3) << r.output;
    EXPECT_NE(r.output.find("error:"), std::string::npos);
    std::remove(ckpt.c_str());
}

TEST(CliArgs, ThreadsCheckpointThenResumeExitsZero)
{
    // Drained-barrier checkpoints are no longer simulator-only: a
    // threaded run may write them and resume from them. The audited
    // resume replays the full access history, so the writer keeps it
    // too (--verify-csp).
    std::string ckpt =
        ::testing::TempDir() + "naspipe_cli_thr.ckpt";
    std::remove(ckpt.c_str());
    CliResult writer =
        runCli("--space CV.c1 --steps 12 --gpus 2 --quiet "
               "--executor threads --verify-csp --ckpt-interval 4 "
               "--ckpt " +
               ckpt);
    EXPECT_EQ(writer.exitCode, 0) << writer.output;
    CliResult reader =
        runCli("--space CV.c1 --steps 12 --gpus 2 --quiet "
               "--executor threads --verify-csp --resume " +
               ckpt);
    EXPECT_EQ(reader.exitCode, 0) << reader.output;
    std::remove(ckpt.c_str());
}

TEST(CliArgs, VerifyCspResumeWithoutHistoryExitsThree)
{
    // A checkpoint written without --verify-csp carries no access
    // history; an audited run must refuse it rather than audit only
    // the subnets it trained itself.
    std::string ckpt =
        ::testing::TempDir() + "naspipe_cli_nohist.ckpt";
    std::remove(ckpt.c_str());
    CliResult writer =
        runCli("--space CV.c1 --steps 12 --gpus 2 --quiet "
               "--executor threads --ckpt-interval 4 --ckpt " +
               ckpt);
    EXPECT_EQ(writer.exitCode, 0) << writer.output;
    CliResult reader =
        runCli("--space CV.c1 --steps 12 --gpus 2 --quiet "
               "--executor threads --verify-csp --resume " +
               ckpt);
    EXPECT_EQ(reader.exitCode, 3) << reader.output;
    EXPECT_NE(reader.output.find("checkpoint carries none"),
              std::string::npos)
        << reader.output;
    std::remove(ckpt.c_str());
}

TEST(CliArgs, ResumeUnderAnotherPrecisionExitsThree)
{
    std::string ckpt =
        ::testing::TempDir() + "naspipe_cli_fp32.ckpt";
    std::remove(ckpt.c_str());
    CliResult writer =
        runCli("--space NLP.c1 --steps 64 --gpus 2 --quiet "
               "--executor threads --ckpt-interval 32 --ckpt " +
               ckpt);
    EXPECT_EQ(writer.exitCode, 0) << writer.output;
    CliResult reader =
        runCli("--space NLP.c1 --steps 64 --gpus 2 --quiet "
               "--executor threads --ckpt-interval 32 "
               "--precision fp16 --resume " +
               ckpt);
    EXPECT_EQ(reader.exitCode, 3) << reader.output;
    EXPECT_NE(reader.output.find("precision fp32"), std::string::npos)
        << reader.output;
    std::remove(ckpt.c_str());
}

TEST(CliArgs, ThreadsMissingResumeCheckpointExitsThree)
{
    CliResult r = runCli("--space CV.c1 --steps 8 --gpus 2 --quiet "
                         "--executor threads "
                         "--resume /nonexistent/run.ckpt");
    EXPECT_EQ(r.exitCode, 3);
    EXPECT_NE(r.output.find("error:"), std::string::npos);
}

TEST(ServeArgs, HelpExitsZero)
{
    CliResult r = runServe("--help");
    EXPECT_EQ(r.exitCode, 0);
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(ServeArgs, MalformedJobValueExitsTwo)
{
    CliResult r = runServe("--job steps=32x");
    EXPECT_EQ(r.exitCode, 2) << r.output;
    EXPECT_NE(r.output.find("steps"), std::string::npos);
}

TEST(ServeArgs, TruncatedJobsFileExitsTwoNamingTheLine)
{
    std::string path = ::testing::TempDir() + "naspipe_serve_jobs.txt";
    {
        std::ofstream out(path, std::ios::trunc);
        out << "name=a,space=CV.c1,seed=3,steps=8\n"
            << "name=b,space=CV.c1,se";  // cut mid-spec
    }
    CliResult r = runServe("--gpus 2 --jobs " + path);
    EXPECT_EQ(r.exitCode, 2) << r.output;
    EXPECT_NE(r.output.find("line 2"), std::string::npos) << r.output;
    std::remove(path.c_str());
}

TEST(ServeArgs, MissingJobsFileExitsTwo)
{
    CliResult r = runServe("--jobs /nonexistent/jobs.txt");
    EXPECT_EQ(r.exitCode, 2) << r.output;
    EXPECT_NE(r.output.find("cannot open"), std::string::npos);
}

TEST(ServeArgs, TransientJobFaultExitsTwo)
{
    // Stalls slow a shared worker and so every tenant: only fail-stop
    // faults are job-scoped.
    CliResult r = runServe("--job fault=stall@3");
    EXPECT_EQ(r.exitCode, 2) << r.output;
}
