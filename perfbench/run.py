#!/usr/bin/env python3
"""Builds and runs the Maxson end-to-end benchmark (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload cold_scan --seed 1 --seconds 25 --trace 0

The first run configures and compiles the engine and the benchmark into
.bench_build (or $CARGO_TARGET_DIR) with CMake; later runs only re-check the
build. The benchmark works in .bench_work/ and writes traced runs' Chrome
traces to .bench_out/. The last line of stdout is the JSON result; the exit
code is 0 only when every answer was correct.

Extra flags pass through to the benchmark binary: --scale tiny|short_splits
and --corrupt-reference (both for the self-test).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840


def run_timeout_s(seconds):
    """Set-up, references, nights and replays take at most about as long as
    the timed stream plus 110 s; at --seconds 25 the run ends within 160 s."""
    return 110 + 2 * seconds


def run(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group, killing the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to " + HERE, 2)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "maxson_perfbench"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            code, _ = run(step, max(1, deadline - time.monotonic()),
                          stdout=sys.stderr.fileno(), cwd=ROOT)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e, 2)
        if code != 0:
            fail("build step failed: " + " ".join(step), 2)
    return os.path.join(build_dir, "maxson_perfbench")


def git_sha():
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        code, out = run(["git", "-C", ROOT, "rev-parse", "HEAD"], 10,
                        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                        env=env, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.strip() if code == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold_scan", "dashboard", "daily_cycle"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    workdir = os.path.join(ROOT, ".bench_work",
                           "%s-%d" % (args.workload, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--git-sha", git_sha()]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            out_dir, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    cmd += extra
    timeout = run_timeout_s(args.seconds)
    try:
        code, out = run(cmd, timeout, stdout=subprocess.PIPE, text=True,
                        cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %g s" % timeout, 3)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        keys_ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        keys_ok = False
    if not keys_ok:
        sys.stdout.write(out)
        fail("benchmark printed no result (exit %d)" % code, code or 1)
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != expected_metrics(args.trace):
        sys.stdout.write(out)
        fail("printed metrics differ from BENCHMARK.json", 1)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
