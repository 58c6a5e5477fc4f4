#!/usr/bin/env python3
"""Tests of the clearing-path benchmark itself.

    python3 perfbench/test_perfbench.py

Runs a short mode of every workload (a few epochs, untraced and traced)
and checks that every metric BENCHMARK.json names is reported, finite and
with its unit; that the seed-determined outputs (digests, payment success,
per-layer counts) repeat exactly on one seed and change with the seed; and
that the benchmark fails without a result when the sources are missing.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Per-layer metrics that are exact functions of the seed. Bids per epoch
# is too on the closed-loop workloads, but not on the open-loop daemon.
EXACT_LAYER_COUNTS = [
    "pcn.game_edges", "pcn.cycles_settled", "flow.solves",
    "flow.structure_builds", "flow.rebinds", "flow.fallbacks",
    "flow.components", "svc.journal_bytes_per_epoch"]
SHORT_EPOCHS = "3"


def run_short(workload, seed, trace):
    """Runs one short benchmark; returns (result line, detail)."""
    detail = os.path.join(run.build_dir(), "out",
                          "detail-%s-%d-%d.json" % (workload, seed, trace))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--epochs", SHORT_EPOCHS, "--detail", detail],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError("%s seed %d trace %d exited %d:\n%s" % (
            workload, seed, trace, proc.returncode, proc.stderr[-3000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(detail) as f:
        return result, json.load(f)


class ShortRuns(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        if run.build(run.build_dir()) is None:
            raise RuntimeError("benchmark build failed")

    def check_result(self, result, metrics):
        self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                          "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in metrics))
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def check_workload(self, workload):
        a, a_detail = run_short(workload, 1, 0)
        again, again_detail = run_short(workload, 1, 0)
        other, other_detail = run_short(workload, 2, 0)
        for result in (a, again, other):
            self.check_result(result, SPEC["end_to_end"])
        for key in ("digests", "counts"):
            self.assertEqual(a_detail[key], again_detail[key], key)
        self.assertEqual(a["metrics"]["payment_success"],
                         again["metrics"]["payment_success"])
        self.assertNotEqual(a_detail["digests"], other_detail["digests"])
        self.assertNotEqual(a_detail["counts"], other_detail["counts"])

        t, t_detail = run_short(workload, 1, 1)
        t_again, t_again_detail = run_short(workload, 1, 1)
        t_other, t_other_detail = run_short(workload, 2, 1)
        for result in (t, t_again, t_other):
            self.check_result(result, SPEC["per_layer"])
        self.assertEqual(t_detail["digests"], a_detail["digests"])
        self.assertEqual(t_detail["counts"], t_again_detail["counts"])
        for name in EXACT_LAYER_COUNTS:
            self.assertEqual(t["metrics"][name], t_again["metrics"][name], name)
        self.assertNotEqual(t_detail["digests"], t_other_detail["digests"])

    def test_m3_msat_traffic(self):
        self.check_workload("m3-msat-traffic")

    def test_daemon_quiescent_tcp(self):
        self.check_workload("daemon-quiescent-tcp")

    def test_fails_without_sources(self):
        # BENCHMARK.json and perfbench/ alone cannot build the program.
        root = os.path.join(run.build_dir(), "selftest-no-sources")
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
        shutil.copytree(HERE, os.path.join(root, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=180)
        shutil.rmtree(root, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
