#!/usr/bin/env python3
"""Repository benchmark: build hoplite_perfbench from source, run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (and through it the library under src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. The benchmark
binary then measures the workload for --seconds of host time; this script
echoes its report and checks that the result object it ends with carries
exactly the metrics BENCHMARK.json lists for the mode: end_to_end with
--trace 0, per_layer with --trace 1. The last stdout line is that object.
The exit code is 0 only when the build, every check in the binary and the
result's shape are all good; a failed build prints no result.

--tiny, --perturb-event and --inject-unsettled are passed through to the
binary for the benchmark's own tests (test_perfbench.py).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("collective-4096", "zipf-evict", "uplink-contention")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(REPO_ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary's path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", out, "-j", jobs, "--target", "hoplite_perfbench"]
    for attempt in range(2):
        ok = subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode == 0
        ok = ok and subprocess.run(compile_, stdout=sys.stderr,
                                   stderr=sys.stderr).returncode == 0
        if ok:
            return os.path.join(out, "hoplite_perfbench")
        if attempt == 0 and os.path.isdir(out):
            # A build tree configured for another checkout location cannot be
            # reused; start it over once.
            shutil.rmtree(out)
    fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, expected):
    """Returns the reasons `result` does not have the contract's shape."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("nothing attempted")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        differing = sorted(set(metrics) ^ set(expected))
        problems.append(f"metrics differ from BENCHMARK.json: {differing}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append(f"{name}: value {v!r} is not a finite number")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--perturb-event", type=int, default=0)
    parser.add_argument("--inject-unsettled", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    expected = expected_metrics(args.trace)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        command.append("--tiny")
    if args.perturb_event:
        command += ["--perturb-event", str(args.perturb_event)]
    if args.inject_unsettled:
        command.append("--inject-unsettled")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("benchmark binary timed out")

    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"binary exited {proc.returncode} without a result")
    problems = check_result(result, expected)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if problems:
        result["correct"] = False
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
