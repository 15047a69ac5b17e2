#!/usr/bin/env python3
"""Record the committed perf trajectory, BENCH_<pr>.json, from perfbench.

    python3 tools/bench_record.py --pr N [--seconds S] [--out FILE]

For every workload BENCHMARK.json names, runs perfbench/run.py at seed 1
twice: timed (--trace 0) for the end-to-end medians and traced
(--trace 1) for the per-layer ledger. --seconds defaults to the
benchmark's run_seconds, --out to BENCH_<pr>.json at the repo root.

Writes one naspipe-bench/5 document holding, per workload, the
correct/attempted/failed fields summed over both runs, the end-to-end
metrics, the ledger, and each run's `noise` line (host steal share,
pace and unscaled medians). Exits 1 without writing anything when a
run fails, prints no result, reports correct: false or failed > 0.
Stdlib only.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = "naspipe-bench/5"
SEED = 1


def fail(message):
    print("bench_record: " + message, file=sys.stderr)
    sys.exit(1)


def json_or_none(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def run(workload, seconds, trace):
    """One perfbench run -> (result, noise); exits on any failure."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    what = "%s --trace %d" % (workload, trace)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    noise = [json_or_none(line[len("noise "):]) for line in lines
             if line.startswith("noise ")]
    noise = noise[-1] if noise else None
    result = json_or_none(lines[-1]) if lines else None
    if isinstance(result, dict) and (result.get("correct") is not True
                                     or result.get("failed") != 0):
        fail("%s: correct=%s failed=%s" % (what, result.get("correct"),
                                            result.get("failed")))
    if proc.returncode != 0:
        fail("%s: perfbench exited %d" % (what, proc.returncode))
    if not isinstance(result, dict) or not isinstance(noise, dict):
        fail("%s: no result or noise line" % what)
    return result, noise


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    if seconds < 1:
        fail("--seconds must be at least 1")
    out = args.out or os.path.join(ROOT, "BENCH_%d.json" % args.pr)

    workloads = {}
    for entry in bench["workloads"]:
        name = entry["name"]
        timed, timed_noise = run(name, seconds, 0)
        traced, traced_noise = run(name, seconds, 1)
        workloads[name] = {
            "correct": True,
            "attempted": timed["attempted"] + traced["attempted"],
            "failed": 0,
            "metrics": timed["metrics"],
            "ledger": traced["metrics"],
            "noise": timed_noise,
            "ledger_noise": traced_noise,
        }
        print("bench_record: %s ok (%d checks)"
              % (name, workloads[name]["attempted"]), file=sys.stderr)

    doc = {"schema": SCHEMA, "pr": args.pr, "seed": SEED,
           "seconds": seconds, "workloads": workloads}
    tmp = out + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, out)
    print("bench_record: wrote " + out, file=sys.stderr)


if __name__ == "__main__":
    main()
