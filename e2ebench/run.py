#!/usr/bin/env python3
"""End-to-end simulator benchmark: build, run one workload, check, report.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload dc-stream --seed 1 --seconds 20 --trace 0

Builds e2ebench/main.exe with dune, runs it, and prints as the last line
of standard output one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end_to_end metrics of
BENCHMARK.json, --trace 1 the per_layer metrics. Exits non-zero, without
a result line, when the simulator sources are missing or do not build;
exits 1 with "correct": false when an output check fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_LIMIT_S = 175


def die(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(2)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    section = bench["per_layer" if trace else "end_to_end"]
    names = [w["name"] for w in bench["workloads"]]
    return names, {m["name"]: m["unit"] for m in section}


def validate(result, expected):
    """Problems with the result line's shape; empty when it is sound."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys %s" % sorted(result)]
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted %r" % result["attempted"])
    if not result["correct"]:
        return problems
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append("metrics missing %s, unexpected %s" % (missing, extra))
    for name, m in metrics.items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append("%s = %r" % (name, v))
        if name in expected and m.get("unit") != expected[name]:
            problems.append("%s unit %r, expected %r" % (name, m.get("unit"), expected[name]))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("%s not found next to e2ebench/: run from a full source checkout" % needed)
    names, expected = expected_metrics(args.trace)
    if args.workload not in names:
        die("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))

    build = subprocess.run(
        ["dune", "build", "--root", ".", "./e2ebench/main.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        die("build failed")

    started = time.monotonic()
    exe = os.path.join(ROOT, "_build", "default", "e2ebench", "main.exe")
    run = subprocess.run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=RUN_LIMIT_S,
    )
    lines = run.stdout.strip().splitlines()
    if not lines:
        die("no result from main.exe (exit %d)" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die("unparsable result line: %s" % lines[-1])
    problems = validate(result, expected)
    if problems or (run.returncode != 0 and result.get("correct")):
        for p in problems:
            print("e2ebench: bad result: " + p, file=sys.stderr)
        result = {"correct": False, "attempted": max(1, result.get("attempted", 1)),
                  "failed": max(1, result.get("attempted", 1)), "metrics": {}}
    print("e2ebench: %s seed %d trace %d measured in %.1f s"
          % (args.workload, args.seed, args.trace, time.monotonic() - started), file=sys.stderr)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
