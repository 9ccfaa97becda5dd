#!/usr/bin/env python3
"""Build and run the Zmail benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload zipf_scale --seed 1 --seconds 10 --trace 0

Builds perfbench/main.exe with dune into .bench_build/ (inside the
checkout), runs it, and relays its output.  The last line of standard
output is the JSON result.  Before relaying it, the script checks that
the result has exactly the metrics BENCHMARK.json names for the mode
(end_to_end with --trace 0, per_layer with --trace 1), with the same
units; any mismatch, a failed build or a failed run exits non-zero
without printing a result.  See perfbench/README.md for the metrics.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["zipf_scale", "serving_lossy", "crash_sweep", "sharded_1dom"]
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    # Keep every file dune writes inside the checkout: no shared cache.
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(BUILD_DIR, "xdg-cache"))
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed with exit code %d" % done.returncode)
    return os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON")
    if not isinstance(result, dict) or sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are not correct/attempted/failed/metrics")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("no op attempted")
    expected = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json: missing %s, extra or mis-unit %s"
             % (sorted(set(expected) - set(got)),
                sorted(k for k in got if expected.get(k) != got[k])))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("benchmark run failed: %s" % e)
    if done.returncode != 0:
        fail("benchmark exited with code %d" % done.returncode)
    lines = done.stdout.rstrip("\n").split("\n")
    check_result(lines[-1], args.trace == 1)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
