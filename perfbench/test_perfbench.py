#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of the source tree:

    python3 perfbench/test_perfbench.py

They build cbfww_perf (as run.py does), then: run every workload at smoke
scale, measured and traced, and require its output checks to pass and its
metrics to be exactly the ones BENCHMARK.json names; check that one seed
reproduces the exact op stream and another seed does not; and run every
workload clean on a held-out seed. About two minutes on 4 cores.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
HELD_OUT_SEED = 424242


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(*args):
    out = subprocess.run([sys.executable, RUN] + [str(a) for a in args],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError("run.py %s failed (%d):\n%s\n%s" % (
            " ".join(map(str, args)), out.returncode, out.stdout[-3000:],
            out.stderr[-3000:]))
    return out.stdout


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    def check_clean(self, stdout, names):
        r = result(stdout)
        self.assertEqual(sorted(r), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(r["correct"], stdout[-3000:])
        self.assertEqual(r["failed"], 0, stdout[-3000:])
        self.assertGreaterEqual(r["attempted"], 1)
        self.assertEqual(sorted(r["metrics"]), sorted(names))
        for name, metric in r["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
            self.assertTrue(metric["unit"], name)
        return r

    def test_smoke_measured_every_workload(self):
        spec = bench()
        names = [m["name"] for m in spec["end_to_end"]]
        for workload in (w["name"] for w in spec["workloads"]):
            with self.subTest(workload=workload):
                r = self.check_clean(
                    run("--workload", workload, "--seed", 2003, "--seconds", 1,
                        "--trace", 0, "--smoke", "--setups", 2), names)
                for name in names:
                    self.assertGreater(r["metrics"][name]["value"], 0, name)

    def test_smoke_traced_every_workload(self):
        spec = bench()
        names = [m["name"] for m in spec["per_layer"]]
        for workload in (w["name"] for w in spec["workloads"]):
            with self.subTest(workload=workload):
                self.check_clean(
                    run("--workload", workload, "--seed", 2003, "--seconds", 2,
                        "--trace", 1, "--smoke"), names)

    def test_same_seed_same_op_stream(self):
        for workload in (w["name"] for w in bench()["workloads"]):
            with self.subTest(workload=workload):
                a = run("--workload", workload, "--seed", 7, "--dump-ops", 2000)
                b = run("--workload", workload, "--seed", 7, "--dump-ops", 2000)
                c = run("--workload", workload, "--seed", 8, "--dump-ops", 2000)
                self.assertEqual(a, b)
                self.assertNotEqual(a.splitlines()[-1], c.splitlines()[-1])

    def test_held_out_seed_runs_clean(self):
        spec = bench()
        names = [m["name"] for m in spec["end_to_end"]]
        for workload in (w["name"] for w in spec["workloads"]):
            with self.subTest(workload=workload):
                self.check_clean(
                    run("--workload", workload, "--seed", HELD_OUT_SEED,
                        "--seconds", 1, "--trace", 0, "--smoke", "--setups", 1),
                    names)

    def test_compare_flags_a_regression(self):
        compare = os.path.join(HERE, "compare.py")
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            base, change = os.path.join(tmp, "a"), os.path.join(tmp, "b")
            for path, scale in ((base, 1.0), (change, 1.5)):
                with open(path, "w") as f:
                    for i in range(10):
                        value = scale * (1.0 + 0.001 * i)
                        f.write(json.dumps({"workload": "browse", "seed": i,
                                            "trace": 0, "result": {
                                                "correct": True, "attempted": 1,
                                                "failed": 0, "metrics": {
                                                    "page_p50_ms": {
                                                        "value": value,
                                                        "unit": "ms"}}}}) + "\n")
            out = subprocess.run([sys.executable, compare, base, change],
                                 capture_output=True, text=True)
            self.assertEqual(out.returncode, 1, out.stdout)
            self.assertIn("worse", out.stdout)
            same = subprocess.run([sys.executable, compare, base, base],
                                  capture_output=True, text=True)
            self.assertEqual(same.returncode, 0, same.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
