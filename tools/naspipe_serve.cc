/**
 * @file
 * naspipe_serve — run many supernet searches on one shared worker
 * pool (the multi-tenant search service, src/serve/).
 *
 * Usage:
 *   naspipe_serve [--gpus N] [--job SPEC]... [--jobs FILE]
 *                 [--max-inflight N] [--metrics-out FILE.json]
 *                 [--json] [--quiet]
 *
 * Each --job flag (repeatable) describes one search as
 * comma-separated key=value pairs:
 *
 *   --job space=NLP.c1,seed=11,steps=32,priority=2,ckpt=8
 *   --job space=CV.c1,seed=3,steps=24,fault=crash@12,retries=2
 *
 * Keys: name, space, seed, steps, priority (WRR weight), ckpt
 * (drained-checkpoint interval), ckpt-path, retries (consecutive
 * recovery retries), window (per-job in-flight cap), fault
 * (KIND@STEP with KIND crash|drop; repeatable, job-scoped).
 *
 * --jobs FILE reads one job spec per line ('#' comments). All jobs
 * share one pool of --gpus stage workers; every job's weights are
 * bitwise-identical to a solo run of the same spec — the cross-job
 * interleaving is deterministic (smooth weighted round-robin on the
 * logical clock) and CSP makes each job's numerics independent of
 * it anyway.
 *
 * The final status report is an aligned table, or a JSON array with
 * --json. --metrics-out writes the per-job namespaced metrics
 * registry (job/<id>/...; logical mode, byte-identical across
 * reruns of the same specs).
 *
 * Exit codes: 0 all jobs done, 2 bad arguments, 3 >= 1 job failed,
 * 5 >= 1 job exhausted its recovery retries, 6 service failure
 * (shared pool incident: a worker whose task threw — every live job
 * lost).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/table.h"
#include "obs/metrics_registry.h"
#include "serve/service.h"

namespace {

using namespace naspipe;

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--gpus N] [--job SPEC]... [--jobs FILE]\n"
        "          [--max-inflight N] [--metrics-out FILE.json]\n"
        "          [--json] [--quiet]\n"
        "job SPEC: comma-separated key=value pairs with keys\n"
        "          name space seed steps priority ckpt ckpt-path\n"
        "          precision (fp32|fp16)\n"
        "          retries window fault (KIND@STEP, KIND crash|drop,\n"
        "          repeatable)\n"
        "exit:     0 all done, 2 bad args, 3 job failed,\n"
        "          5 recovery retries exhausted, 6 service failure\n",
        argv0);
}

[[noreturn]] void
argError(const char *argv0, const std::string &message)
{
    std::fprintf(stderr, "error: %s\n", message.c_str());
    usage(argv0);
    std::exit(2);
}

std::string
jsonStatusArray(const std::vector<serve::JobStatus> &statuses)
{
    std::ostringstream out;
    out << "[";
    for (std::size_t i = 0; i < statuses.size(); i++) {
        const serve::JobStatus &s = statuses[i];
        if (i)
            out << ",";
        out << "{\"id\":" << s.id << ",\"name\":\""
            << obs::jsonEscape(s.name) << "\",\"state\":\""
            << serve::jobStateName(s.state) << "\",\"priority\":"
            << s.priority << ",\"finished\":" << s.finished
            << ",\"total\":" << s.total << ",\"recoveries\":"
            << s.recoveries << ",\"supernet_hash\":"
            << s.supernetHash << ",\"error\":\""
            << obs::jsonEscape(s.error) << "\"}";
    }
    out << "]";
    return out.str();
}

} // namespace

int
main(int argc, char **argv)
{
    int gpus = 4;
    int maxInflight = 0;
    bool json = false;
    bool quiet = false;
    std::string metricsOut;
    std::vector<serve::JobSpec> specs;

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto nextValue = [&]() -> const char * {
            if (i + 1 >= argc)
                argError(argv[0], arg + " needs a value");
            return argv[++i];
        };
        auto intValue = [&](int lo, int hi) {
            int v = 0;
            if (!parseWholeNumber(nextValue(), v) || v < lo ||
                v > hi) {
                argError(argv[0], arg + " needs an integer in [" +
                                      std::to_string(lo) + ", " +
                                      std::to_string(hi) + "]");
            }
            return v;
        };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--gpus") {
            gpus = intValue(1, 512);
        } else if (arg == "--max-inflight") {
            maxInflight = intValue(0, 100000);
        } else if (arg == "--job") {
            serve::JobSpec spec;
            std::string why;
            if (!serve::parseJobSpec(nextValue(), spec, &why))
                argError(argv[0], why);
            specs.push_back(std::move(spec));
        } else if (arg == "--jobs") {
            std::ifstream in(nextValue());
            if (!in)
                argError(argv[0], "cannot open jobs file '" +
                                      std::string(argv[i]) + "'");
            std::string line;
            int lineNo = 0;
            while (std::getline(in, line)) {
                lineNo++;
                std::size_t start =
                    line.find_first_not_of(" \t\r");
                if (start == std::string::npos ||
                    line[start] == '#')
                    continue;
                serve::JobSpec spec;
                std::string why;
                if (!serve::parseJobSpec(line.substr(start), spec,
                                         &why)) {
                    argError(argv[0],
                             "jobs file line " +
                                 std::to_string(lineNo) + ": " +
                                 why);
                }
                specs.push_back(std::move(spec));
            }
        } else if (arg == "--metrics-out") {
            metricsOut = nextValue();
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            argError(argv[0], "unknown argument " + arg);
        }
    }
    if (specs.empty())
        argError(argv[0], "no jobs given (--job or --jobs)");

    serve::ServiceConfig config;
    config.numStages = gpus;
    config.maxTotalInflight = maxInflight;
    serve::SearchService service(config);

    std::string why;
    std::vector<int> ids = service.submitBatch(specs, &why);
    if (ids.empty())
        argError(argv[0], why);
    service.drain();

    int outcome = service.run();

    std::vector<serve::JobStatus> statuses = service.status();
    if (json) {
        std::printf("%s\n", jsonStatusArray(statuses).c_str());
    } else if (!quiet) {
        TextTable table({"job", "name", "space", "state", "prio",
                         "done", "recov", "hash/error"});
        for (const serve::JobStatus &s : statuses) {
            std::string last;
            if (s.state == serve::JobState::Done) {
                char buf[32];
                std::snprintf(buf, sizeof(buf), "%016llx",
                              static_cast<unsigned long long>(
                                  s.supernetHash));
                last = buf;
            } else {
                last = s.error;
            }
            const serve::ServeJob *job = service.job(s.id);
            table.addRow({std::to_string(s.id), s.name,
                          job ? job->spec().space : "?",
                          serve::jobStateName(s.state),
                          std::to_string(s.priority),
                          std::to_string(s.finished) + "/" +
                              std::to_string(s.total),
                          std::to_string(s.recoveries), last});
        }
        std::printf("%s", table.render().c_str());
        if (outcome == serve::SearchService::ServiceFailed) {
            std::printf("service failure: %s\n",
                        service.serviceError().c_str());
        }
    }

    if (!metricsOut.empty()) {
        std::ofstream out(metricsOut, std::ios::trunc);
        if (!out) {
            std::fprintf(stderr,
                         "error: cannot write metrics to '%s'\n",
                         metricsOut.c_str());
            return 3;
        }
        out << service.exportMetricsJson(/*stableOnly=*/true)
            << "\n";
    }
    return outcome;
}
