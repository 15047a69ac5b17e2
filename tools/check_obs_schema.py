#!/usr/bin/env python3
"""Validate observability artifacts against their declared schemas.

Usage: check_obs_schema.py FILE [FILE ...]

Each file must be a JSON document produced by naspipe_cli
(--trace-out / --metrics-out) or a committed BENCH_<pr>.json. The
document kind is auto-detected from its schema tag:

  naspipe-trace/1    Chrome trace-event export (otherData.schema)
  naspipe-metrics/1  unified metrics registry export
  naspipe-bench/1    committed perf trajectory (BENCH_<pr>.json)
  naspipe-bench/2    as /1 plus a required `recovery` section (the
                     threaded crash→recover→bitwise-verify record)
  naspipe-bench/3    as /2 plus a required `serve` section (the
                     multi-tenant shared-pool record: job count,
                     aggregate throughput, per-job bitwise gate)
  naspipe-bench/4    as /3 plus a required `numeric` section (the
                     kernel-layer record: sequential-vs-tree
                     reduction timings and the per-precision-mode
                     golden weight-hash gate)
  naspipe-bench/5    perfbench record from tools/bench_record.py:
                     per workload `correct` true, `failed` 0, and
                     non-empty `metrics` (end-to-end) and `ledger`
                     (per-layer) maps of {value, unit}. /1-/4 are
                     the older single-run BENCH_6-BENCH_10.json.

Exits 0 when every file validates, 1 otherwise, printing one line per
problem. No third-party dependencies — CI runs this on a bare python3.
"""

import json
import sys

TRACE_SCHEMA = "naspipe-trace/1"
METRICS_SCHEMA = "naspipe-metrics/1"
BENCH_SCHEMAS = ("naspipe-bench/1", "naspipe-bench/2",
                 "naspipe-bench/3", "naspipe-bench/4")
PERFBENCH_SCHEMA = "naspipe-bench/5"


def check_trace(doc, err):
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        err("traceEvents missing or empty")
        return
    other = doc.get("otherData", {})
    if other.get("schema") != TRACE_SCHEMA:
        err("otherData.schema != %s" % TRACE_SCHEMA)
    for key in ("space", "executor", "mode"):
        if not other.get(key):
            err("otherData.%s missing" % key)
    if other.get("mode") not in ("logical", "wall"):
        err("otherData.mode must be logical|wall")
    span_count = 0
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") not in ("process_name", "thread_name"):
                err("event %d: unknown metadata %r" % (i, ev.get("name")))
            continue
        if ph != "X":
            err("event %d: unexpected phase %r" % (i, ph))
            continue
        span_count += 1
        for key in ("name", "ts", "dur", "pid", "tid"):
            if key not in ev:
                err("event %d: missing %r" % (i, key))
        if float(ev.get("dur", 0)) <= 0:
            err("event %d: non-positive dur" % i)
    if span_count == 0:
        err("no X (span) events")


def check_histogram(name, hist, err):
    bounds = hist.get("bounds")
    counts = hist.get("counts")
    if not isinstance(bounds, list) or not isinstance(counts, list):
        err("histogram %s: bounds/counts missing" % name)
        return
    if len(counts) != len(bounds) + 1:
        err("histogram %s: len(counts) != len(bounds)+1" % name)
    if sorted(bounds) != bounds:
        err("histogram %s: bounds not ascending" % name)
    if sum(counts) != hist.get("total"):
        err("histogram %s: total != sum(counts)" % name)


def check_metrics(doc, err):
    if doc.get("schema") != METRICS_SCHEMA:
        err("schema != %s" % METRICS_SCHEMA)
    # A serve-mode export covers many jobs, so the per-run identity
    # headers live under job/<id>/... metrics instead.
    if doc.get("mode") == "serve":
        headers = ("mode", "stages")
    else:
        headers = ("space", "executor", "mode", "seed", "steps",
                   "stages")
    for key in headers:
        if key not in doc:
            err("header %r missing" % key)
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        err("metrics object missing or empty")
        return
    keys = list(metrics.keys())
    if keys != sorted(keys):
        err("metric keys not in lexicographic order")
    for key in ("run/finished_subnets", "quality/supernet_hash"):
        if key not in metrics:
            err("required metric %r missing" % key)
    if doc.get("mode") == "serve":
        if metrics.get("serve/jobs", 0) < 1:
            err("serve-mode export without serve/jobs")
        for name in metrics:
            if name.startswith("job/"):
                break
        else:
            err("serve-mode export without job/<id>/ namespaces")
    for name, hist in doc.get("histograms", {}).items():
        check_histogram(name, hist, err)


def check_recovery(recovery, err):
    if not isinstance(recovery, dict):
        err("recovery section missing")
        return
    for key in ("workers", "ckpt_interval", "crash_step",
                "recoveries", "replayed", "recovery_s",
                "bitwise_match"):
        if key not in recovery:
            err("recovery.%s missing" % key)
    if not recovery.get("bitwise_match"):
        err("recovery: crash-recovered weights diverge from the "
            "fault-free run")
    if recovery.get("recoveries", 0) < 1:
        err("recovery: no recovery happened (crash never fired?)")
    if recovery.get("replayed", -1) < 0:
        err("recovery: negative replayed count")


def check_serve(serve, err):
    if not isinstance(serve, dict):
        err("serve section missing")
        return
    for key in ("stages", "jobs", "wall_s", "subnets_per_s",
                "per_job"):
        if key not in serve:
            err("serve.%s missing" % key)
    if serve.get("jobs", 0) < 1:
        err("serve: no jobs ran")
    per_job = serve.get("per_job")
    if not isinstance(per_job, list) or not per_job:
        err("serve.per_job missing or empty")
        return
    if len(per_job) != serve.get("jobs"):
        err("serve: jobs != len(per_job)")
    for entry in per_job:
        for key in ("job", "space", "seed", "steps", "hash",
                    "bitwise_match"):
            if key not in entry:
                err("serve job %s: %s missing"
                    % (entry.get("job"), key))
        if not entry.get("bitwise_match"):
            err("serve job %s (%s): shared-pool weights diverge "
                "from the solo run"
                % (entry.get("job"), entry.get("space")))


def check_numeric(numeric, err):
    if not isinstance(numeric, dict):
        err("numeric section missing")
        return
    reductions = numeric.get("reductions")
    if not isinstance(reductions, list) or not reductions:
        err("numeric.reductions missing or empty")
    else:
        for entry in reductions:
            for key in ("n", "seq_us", "tree_us", "speedup"):
                if key not in entry:
                    err("numeric reduction n=%s: %s missing"
                        % (entry.get("n"), key))
    goldens = numeric.get("goldens")
    if not isinstance(goldens, list) or not goldens:
        err("numeric.goldens missing or empty")
        return
    modes = set()
    for entry in goldens:
        for key in ("space", "mode", "workers", "steps", "hash",
                    "sim_threads_match", "golden_match"):
            if key not in entry:
                err("numeric golden %s/%s: %s missing"
                    % (entry.get("space"), entry.get("mode"), key))
        modes.add(entry.get("mode"))
        if not entry.get("sim_threads_match"):
            err("numeric golden %s/%s: sim and threads hashes "
                "DIVERGE" % (entry.get("space"), entry.get("mode")))
        if not entry.get("golden_match"):
            err("numeric golden %s/%s: weight hash diverges from "
                "the committed golden"
                % (entry.get("space"), entry.get("mode")))
    for mode in ("fp32", "fp16_rne"):
        if mode not in modes:
            err("numeric.goldens: no %s entry" % mode)


def check_bench(doc, err):
    if doc.get("schema") not in BENCH_SCHEMAS:
        err("schema not in %s" % (BENCH_SCHEMAS,))
    if not isinstance(doc.get("pr"), int):
        err("pr missing")
    micro = doc.get("micro")
    if not isinstance(micro, dict) or not micro:
        err("micro section missing or empty")
    else:
        for name, entry in micro.items():
            if entry.get("us_per_iter", -1) < 0 or \
                    entry.get("iterations", 0) < 1:
                err("micro %s: bad timing entry" % name)
    scaling = doc.get("scaling")
    if not isinstance(scaling, list) or not scaling:
        err("scaling section missing or empty")
    else:
        for entry in scaling:
            if not entry.get("bitwise_match"):
                err("scaling %s workers: sim/threads hash MISMATCH"
                    % entry.get("workers"))
    if doc.get("schema") in ("naspipe-bench/2", "naspipe-bench/3",
                             "naspipe-bench/4"):
        check_recovery(doc.get("recovery"), err)
    if doc.get("schema") in ("naspipe-bench/3", "naspipe-bench/4"):
        check_serve(doc.get("serve"), err)
    if doc.get("schema") == "naspipe-bench/4":
        check_numeric(doc.get("numeric"), err)
    stable = doc.get("stable", {})
    for key in ("supernet_hash", "final_loss",
                "logical_makespan_ticks", "logical_span_count"):
        if key not in stable:
            err("stable.%s missing" % key)


def check_metric_map(where, metrics, err):
    if not isinstance(metrics, dict) or not metrics:
        err("%s missing or empty" % where)
        return
    for name, entry in metrics.items():
        if not isinstance(entry, dict):
            err("%s.%s: not a {value, unit} object" % (where, name))
            continue
        value = entry.get("value")
        if isinstance(value, bool) or \
                not isinstance(value, (int, float)):
            err("%s.%s: value missing or not a number" % (where, name))
        if not entry.get("unit"):
            err("%s.%s: unit missing" % (where, name))


def check_perfbench(doc, err):
    if not isinstance(doc.get("pr"), int):
        err("pr missing")
    workloads = doc.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        err("workloads missing or empty")
        return
    for name, entry in workloads.items():
        if not isinstance(entry, dict):
            err("workload %s: not an object" % name)
            continue
        if entry.get("correct") is not True:
            err("workload %s: correct is not true" % name)
        if entry.get("failed") != 0:
            err("workload %s: failed != 0" % name)
        check_metric_map("%s.metrics" % name, entry.get("metrics"), err)
        check_metric_map("%s.ledger" % name, entry.get("ledger"), err)


def check_file(path):
    problems = []

    def err(msg):
        problems.append("%s: %s" % (path, msg))

    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return ["%s: unreadable or invalid JSON: %s" % (path, e)]

    schema = doc.get("schema") or \
        doc.get("otherData", {}).get("schema")
    if schema == TRACE_SCHEMA:
        check_trace(doc, err)
    elif schema == METRICS_SCHEMA:
        check_metrics(doc, err)
    elif schema in BENCH_SCHEMAS:
        check_bench(doc, err)
    elif schema == PERFBENCH_SCHEMA:
        check_perfbench(doc, err)
    else:
        err("unrecognized schema tag %r" % schema)
    return problems


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2])
        return 2
    failures = 0
    for path in argv[1:]:
        problems = check_file(path)
        if problems:
            failures += 1
            for p in problems:
                print("FAIL %s" % p)
        else:
            print("ok   %s" % path)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
