#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale, run from the repository root:

    python3 perfbench/selftest.py [--audit-scale tiny|full] [--audit-seconds S]

Asserts two things, for all three workloads:
  1. untraced and traced runs print every metric of BENCHMARK.json with its
     unit, and report a correct result with no failed requests;
  2. a deliberately corrupted reference is reported as a failure (correct
     false, failed > 0, non-zero exit).
Then reports, without asserting them, a probe of a known program defect
(README.md, "Known program defect") and the deterministic-count audit: cold_scan
and daily_cycle (one client) run twice with one seed, and every count-based
per-layer metric and cache_mib should repeat exactly; dashboard's counts
depend on scheduling, so their spread is shown instead.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cold_scan", "dashboard", "daily_cycle"]
COUNT_METRICS = [
    "storage.encoded_per_raw", "json.parse_amplification",
    "json.records_per_row", "exec.tasks_per_query",
    "storage.row_groups_skipped_ratio", "core.cache_columns_per_query",
    "core.registry_hit_ratio", "core.stale_fallbacks", "serve.rejected",
    "exec.sharedscan_coalesced_ratio", "serve.result_cache_hit_ratio",
]


def bench(workload, seed, trace, seconds, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    try:
        result = json.loads(proc.stdout.strip().split("\n")[-1])
    except (ValueError, IndexError):
        result = None
    return proc.returncode, result, proc


def spec_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--audit-scale", choices=["tiny", "full"],
                        default="tiny")
    parser.add_argument("--audit-seconds", type=float, default=2)
    args = parser.parse_args()
    problems = []

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, proc = bench(workload, 7, trace, 1, "--scale",
                                       "tiny")
            name = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None:
                problems.append("%s: exit %d, stderr %s" %
                                (name, code, proc.stderr[-400:]))
                continue
            printed = {k: v.get("unit") for k, v in result["metrics"].items()}
            if printed != spec_units(trace):
                problems.append("%s: metrics/units differ from "
                                "BENCHMARK.json" % name)
            if not all(isinstance(v.get("value"), (int, float)) and
                       math.isfinite(v["value"])
                       for v in result["metrics"].values()):
                problems.append("%s: a metric value is not a number" % name)
            if (result["correct"] is not True or result["failed"] != 0 or
                    result["attempted"] < 1):
                problems.append("%s: correct=%s attempted=%s failed=%s" % (
                    name, result["correct"], result["attempted"],
                    result["failed"]))
            print("ok   %-22s attempted %6d  metrics %d" %
                  (name, result["attempted"], len(printed)))

    for workload in WORKLOADS:
        code, result, _ = bench(workload, 7, 0, 1, "--scale", "tiny",
                                "--corrupt-reference")
        if (code == 0 or result is None or result["correct"] is not False or
                result["failed"] == 0):
            problems.append("%s: corrupted reference not reported "
                            "(exit %d, result %s)" % (workload, code, result))
        else:
            print("ok   %-22s corrupted reference -> %d of %d failed, exit %d"
                  % (workload, result["failed"], result["attempted"], code))

    # A known program defect, reported rather than asserted: with an 8-row
    # first part file the cacher can type a mixed string/number JSONPath as
    # numeric and serve 0 for its strings. The benchmark's own scales start
    # every table with one file of at least 48 rows.
    _, result, _ = bench("dashboard", 12, 0, 2, "--scale", "short_splits")
    if result is not None:
        print("known defect probe (short first split): %d of %d answers "
              "wrong" % (result["failed"], result["attempted"]))

    print("\ndeterministic-count audit (%s scale, seed 5, two runs each):" %
          args.audit_scale)
    for workload in WORKLOADS:
        runs = []
        for _ in range(2):
            values = {}
            for trace in (0, 1):
                _, result, _ = bench(workload, 5, trace, args.audit_seconds,
                                     "--scale", args.audit_scale)
                if result is not None:
                    values.update({k: v["value"]
                                   for k, v in result["metrics"].items()})
            runs.append(values)
        for metric in ["cache_mib"] + COUNT_METRICS:
            a, b = runs[0].get(metric), runs[1].get(metric)
            verdict = "repeats" if a == b else "DIFFERS"
            if workload == "dashboard" and metric != "cache_mib":
                verdict = "spread (scheduling-dependent)"
            print("  %-12s %-34s %-8s %s | %s" %
                  (workload, metric, verdict, a, b))

    if problems:
        print("\nFAILED:\n  " + "\n  ".join(problems))
        return 1
    print("\nself-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
