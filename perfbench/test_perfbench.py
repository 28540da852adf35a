#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny scale.

    python3 perfbench/test_perfbench.py        (from the repository root)

Each test drives run.py the way the benchmark is run, with --tiny so a
workload pass takes milliseconds. The negative tests prove that the checks
the benchmark relies on can fail: the traced-vs-untraced comparison, the
accounting of ops that never settle, the collective settle check, and the
refusal to report anything when the library sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("collective-4096", "zipf-evict", "uplink-contention")


def run(args, cwd=REPO, env=None):
    """Runs run.py; returns (exit code, result object or None, stdout)."""
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout


def tiny(workload, trace, *extra, seed=7):
    return run(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--tiny", *extra])


def metric(result, name):
    return result["metrics"][name]["value"]


class TinyRuns(unittest.TestCase):
    def test_every_workload_reports_every_metric_in_both_modes(self):
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, out = tiny(workload, trace)
                    self.assertEqual(code, 0, out)
                    self.assertTrue(result["correct"])
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in spec[key]})

    def test_same_seed_gives_identical_simulated_results(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = [tiny(workload, 0, seed=11) for _ in range(2)]
                digests = [[l for l in out.splitlines() if l.startswith("digest")]
                           for _, _, out in runs]
                self.assertEqual(digests[0], digests[1])
                for name in ("ok_frac", "sim_p50_slowdown", "sim_tail_slowdown"):
                    self.assertEqual(metric(runs[0][1], name), metric(runs[1][1], name))

    def test_traced_run_attributes_events_to_library_layers(self):
        code, result, out = tiny("uplink-contention", 1)
        self.assertEqual(code, 0, out)
        for layer in ("net", "directory", "core", "workload"):
            self.assertGreater(metric(result, f"{layer}.events"), 0, layer)
        self.assertIn("layer other events 0 ", out)
        # Every executed callback is attributed to exactly one layer.
        events = sum(int(l.split()[3]) for l in out.splitlines() if l.startswith("layer "))
        executed = metric(result, "sim.scheduled") - metric(result, "sim.cancelled")
        self.assertEqual(events, executed)


class ChecksCanFail(unittest.TestCase):
    def test_traced_run_that_diverges_fails(self):
        for workload in ("collective-4096", "zipf-evict"):
            with self.subTest(workload=workload):
                code, result, out = tiny(workload, 1, "--perturb-event", "1")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertIn("traced pass computed the same simulated results", out)

    def test_op_that_never_settles_counts_as_failed(self):
        _, base, _ = tiny("zipf-evict", 0)
        code, injected, out = tiny("zipf-evict", 0, "--inject-unsettled")
        self.assertEqual(code, 0, out)
        self.assertTrue(injected["correct"])
        self.assertGreater(injected["failed"], base["failed"])
        self.assertLess(metric(injected, "ok_frac"), metric(base, "ok_frac"))

    def test_collective_participant_that_never_settles_fails_the_run(self):
        code, result, out = tiny("collective-4096", 0, "--inject-unsettled")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertIn("every collective participant settles", out)

    def test_without_library_sources_nothing_is_reported(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
            args = ["--workload", "zipf-evict", "--seed", "1", "--seconds", "1",
                    "--trace", "0"]
            code, result, _ = run(args, cwd=tmp, env=env)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
