"""Self-test of the benchmark, on reduced-size copies of its workloads.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs one reduced pass of every workload, untraced and traced, and checks
the printed metric names and units against BENCHMARK.json; it checks that a
perturbed output row counts as a failed operation, that a hooked name which
no longer resolves is reported instead of raised, and that a layer reading
zero under a caller that ran is flagged.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _reduced():
    t1 = workloads.T1Flagship()
    t1.budgets, t1.target_paths = (50, 50, 100), 128
    matrix = workloads.OracleMatrix()
    matrix.ends, matrix.n_paths = matrix.ends[:1], 512
    bloch = workloads.BlochNear()
    # one path more than a batch, so the process pool still gets two batches
    bloch.points, bloch.n_paths = bloch.points[:2], 8193
    return {w.name: w for w in (t1, matrix, bloch)}


REDUCED = _reduced()
SEED = 3


def _bench(cwd, *args):
    out = io.StringIO()
    saved = dict(run.WORKLOADS)
    run.WORKLOADS.update(REDUCED)
    old = os.getcwd()
    try:
        os.chdir(cwd)
        with contextlib.redirect_stdout(out):
            code = run.main(list(args))
    finally:
        os.chdir(old)
        run.WORKLOADS.clear()
        run.WORKLOADS.update(saved)
    lines = out.getvalue().strip().splitlines()
    return code, lines


class ReducedWorkloads(unittest.TestCase):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    def _check(self, name, trace):
        code, lines = _bench(ROOT, "--workload", name, "--seed", str(SEED),
                             "--seconds", "1", "--trace", str(trace))
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], "\n".join(lines))
        declared = self.bench["per_layer" if trace else "end_to_end"]
        self.assertEqual({m["name"]: m["unit"] for m in declared},
                         {k: v["unit"] for k, v in result["metrics"].items()})
        for metric in result["metrics"].values():
            self.assertTrue(math.isfinite(metric["value"]))
        return result

    def test_end_to_end_metrics(self):
        self.assertEqual(sorted(REDUCED), sorted(w["name"] for w in self.bench["workloads"]))
        for name in REDUCED:
            with self.subTest(workload=name):
                result = self._check(name, 0)
                self.assertGreater(result["metrics"]["wall_s"]["value"], 0.0)

    def test_per_layer_metrics(self):
        for name in REDUCED:
            with self.subTest(workload=name):
                self._check(name, 1)

    def test_perturbed_row_is_a_failure(self):
        for name, wl in REDUCED.items():
            with self.subTest(workload=name):
                runner = run.Runner(ROOT, wl, SEED, time.perf_counter() + 120.0)
                runner.work = ROOT / run.WORK_DIR / "selftest" / name
                shutil.rmtree(runner.work, ignore_errors=True)
                p = runner.run_pass("pass0", 0)
                runner.tally(p, runner.check(p))
                self.assertEqual((runner.attempted, runner.failed), (len(p.invocations), 0))

                inv = p.invocations[0]
                csv_path = p.dir / inv.name / inv.csv_name
                rows = csv_path.read_text().splitlines()
                fields = rows[1].split(",")
                value, se = float(fields[3]), float(fields[4])
                # doubled and shifted: outside the two-sided bands and above
                # the free kernel that bounds the bloch rows
                fields[3] = repr(2.0 * value + 50.0 * se)
                rows[1] = ",".join(fields)
                csv_path.write_text("\n".join(rows) + "\n")
                runner.tally(p, runner.check(p))
                self.assertEqual(runner.failed, 1)
                self.assertIn(inv.name, runner.failures[0])


class Hooks(unittest.TestCase):
    def test_missing_hook_is_reported_not_raised(self):
        from bridgeint import cli, estimators

        wl = REDUCED["oracle_matrix"]
        inv = wl.invocations(SEED, 0)[0]
        work = ROOT / run.WORK_DIR / "selftest" / "hooks"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        cfg = work / "cfg.json"
        cfg.write_text(json.dumps(inv.config))
        gone = estimators.green_potential_radial
        saved_stream_hook = tracing.STREAM_HOOK
        del estimators.green_potential_radial
        tracing.STREAM_HOOK = ("bridgeint.estimators", "stream_renamed")
        tracer = tracing.Tracer()
        try:
            tracer.install()
            t0 = time.perf_counter()
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([inv.command, "--config", str(cfg), "--out", str(work)])
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
            estimators.green_potential_radial = gone
            tracing.STREAM_HOOK = saved_stream_hook
        self.assertIn(code, (0, 3))
        self.assertIn("bridgeint.estimators.green_potential_radial", tracer.missing)
        self.assertIn("bridgeint.estimators.stream_renamed", tracer.missing)
        metrics, _, _ = tracing.layer_metrics(tracer.dump(), wall)
        # green spans still come from green_potential, so they stay; normals go
        self.assertIn("potentials.green.points", metrics)
        self.assertNotIn("path_sim.normals.draws", metrics)
        self.assertGreater(metrics["path_sim.bridge.path_steps"], 0)

    def test_zero_layer_is_flagged(self):
        dump = {"hooked": [f"{m}.{a}" for m, a, _, _ in tracing.SPAN_HOOKS]
                + [".".join(tracing.POTENTIAL_HOOK), ".".join(tracing.STREAM_HOOK)],
                "outside": {},
                "spans": [
                    {"id": 0, "name": "estimators.collect", "parent": None, "start": 0,
                     "end": 10, "attrs": {"paths": 4, "batches": 1, "workers": 1}, "agg": {}},
                    {"id": 1, "name": "path_sim.bridge", "parent": 0, "start": 1, "end": 9,
                     "attrs": {"paths": 4, "steps": 40, "horizon": 1.0},
                     "agg": {"path_sim.normals": [10, 120, 3]}},
                ]}
        metrics, flags, _ = tracing.layer_metrics(dump, 1e-8)
        self.assertEqual(metrics["potentials.eval.radial.points"], 0.0)
        self.assertTrue(any(f.startswith("potentials.eval reads zero") for f in flags), flags)


class OutsideACheckout(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = ROOT / run.WORK_DIR / "selftest" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        with contextlib.redirect_stderr(io.StringIO()):
            code, lines = _bench(bare, "--workload", "t1_flagship", "--seed", "1",
                                 "--seconds", "1", "--trace", "0")
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
