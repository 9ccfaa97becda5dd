#!/usr/bin/env python3
"""Same-runner perf gate: this checkout against a base revision on perfbench.

    python3 bench/ab_gate.py BASE_REV

Extracts BASE_REV (with `git archive`) into a temporary directory.  For
each workload in this checkout's BENCHMARK.json it runs PAIRS pairs of
`perfbench/run.py --seed SEED --seconds SECONDS --trace 0`, one run in
each tree, alternating which tree runs first, so both runs of a pair
see the same host phase.  Each tree builds its own perfbench binary.

This checkout (HEAD) fails a workload when, for any end-to-end metric
in BENCHMARK.json:
- `alloc_words_per_op` (a count, the same in every run of a seed up to
  noise far inside its bound): HEAD's median is worse than the base's
  median by more than the metric's bound;
- any other metric (host-dependent: `ops_per_s`, `peak_heap_mb`,
  `setup_s`): HEAD loses at least LOSSES_TO_FAIL of the PAIRS pairs
  and the median HEAD/base ratio is worse than the metric's bound;
or when its share of failed ops is higher than the base's.

Prints every pair and a verdict per workload; exits 1 if any workload
fails and 2 if a run could not be made.
"""

import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 5
LOSSES_TO_FAIL = 4
SEED = 1
SECONDS = 2
# Metrics judged on the median alone, without a vote of the pairs.
MEDIAN_RULE = {"alloc_words_per_op"}


def worse(head, base, better, bound):
    """True when [head] is worse than [base] by more than [bound] (a fraction)."""
    if better == "higher":
        return head < base * (1 - bound)
    return head > base * (1 + bound)


def ratio(head, base):
    if base == 0:
        return 1.0 if head == 0 else float("inf")
    return head / base


def decide(pairs, metrics):
    """The gate's verdict on one workload.

    [pairs] is a list of (head, base) results, each a dict with
    `attempted`, `failed` and a `metrics` dict of name -> value.
    [metrics] maps each end-to-end metric's name to its BENCHMARK.json
    entry ({"better": ..., "bound": ...}).  Returns the reasons HEAD
    fails; an empty list is a pass.
    """
    reasons = []
    for name, spec in metrics.items():
        better, bound = spec["better"], spec["bound"]
        heads = [h["metrics"][name] for h, _ in pairs]
        bases = [b["metrics"][name] for _, b in pairs]
        if name in MEDIAN_RULE:
            head_median = statistics.median(heads)
            base_median = statistics.median(bases)
            if worse(head_median, base_median, better, bound):
                reasons.append("%s: median %.1f against %.1f"
                               % (name, head_median, base_median))
            continue
        losses = sum(worse(h, b, better, 0.0) for h, b in zip(heads, bases))
        median_ratio = statistics.median(ratio(h, b) for h, b in zip(heads, bases))
        if losses >= LOSSES_TO_FAIL and worse(median_ratio, 1.0, better, bound):
            reasons.append("%s: lost %d of %d pairs, median ratio %.3f"
                           % (name, losses, len(pairs), median_ratio))

    def failed_share(side):
        return (sum(p[side]["failed"] for p in pairs)
                / max(1, sum(p[side]["attempted"] for p in pairs)))

    if failed_share(0) > failed_share(1):
        reasons.append("failed share %.4f against %.4f"
                       % (failed_share(0), failed_share(1)))
    return reasons


def run(tree, workload):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        print("ab_gate: %s failed in %s (exit %d)" % (workload, tree, done.returncode),
              file=sys.stderr)
        sys.exit(2)
    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def extract(rev, into):
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                             stdout=subprocess.PIPE)
    if archive.returncode != 0:
        print("ab_gate: cannot archive %s" % rev, file=sys.stderr)
        sys.exit(2)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")


def main():
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        sys.exit(2)
    started = time.monotonic()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    failed = False
    with tempfile.TemporaryDirectory(prefix="ab_gate_") as base_tree:
        extract(sys.argv[1], base_tree)
        for w in spec["workloads"]:
            name = w["name"]
            pairs = []
            for k in range(PAIRS):
                if k % 2 == 0:
                    head = run(ROOT, name)
                    base = run(base_tree, name)
                else:
                    base = run(base_tree, name)
                    head = run(ROOT, name)
                pairs.append((head, base))
                print("%s pair %d (%s first): %s"
                      % (name, k + 1, "head" if k % 2 == 0 else "base",
                         ", ".join("%s head %.4g base %.4g"
                                   % (m, head["metrics"][m], base["metrics"][m])
                                   for m in metrics)), flush=True)
            reasons = decide(pairs, metrics)
            print("%s: %s" % (name, "FAIL: " + "; ".join(reasons) if reasons else "pass"),
                  flush=True)
            failed = failed or bool(reasons)
    print("ab_gate: %s in %.0f s" % ("FAIL" if failed else "pass",
                                      time.monotonic() - started))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
