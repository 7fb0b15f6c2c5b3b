"""Benchmark of bridgeint, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark generates the workload's configs from the seed, then one
closed-loop client runs them: each pass is a fresh interpreter that calls
``bridgeint.cli.main`` for every invocation back to back, with BLAS and
OpenMP pools pinned to one thread.  Every output row is checked against a
quadrature oracle band.  With ``--trace 0`` passes repeat for about S
seconds and the end-to-end metrics are printed; with ``--trace 1`` one
untraced and one traced pass give the per-layer metrics.  The last line of
standard output is the JSON result.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy loads, here and in every child

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from client import steal_s  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import WORKLOADS, Z_BAND, read_rows  # noqa: E402

SETUP_PROBES = 5
RUN_DEADLINE_S = 170.0
# On a shared VM the speed drifts by up to 20% within minutes, from two
# causes: the hypervisor steals CPU time, and co-tenants slow the CPU while
# it runs.  Invocation times have the steal taken out (shared over the busy
# CPUs) and are then rescaled by CAL_REF_S over the CPU time of a fixed
# speed probe (client.probe); CAL_REF_S is the probe's time at the
# reference speed.
CAL_REF_S = 0.25
WORK_DIR = Path(".bench_build") / "perfbench"
# layers whose traced numbers come from the in-process (1-worker) pass
KERNEL_PREFIXES = ("path_sim.", "potentials.eval.")


@dataclass
class Pass:
    label: str
    invocations: list
    dir: Path
    result: dict = field(default_factory=dict)
    ready_s: float | None = None
    seconds: float = 0.0
    timed_out: bool = False
    busy_cpus: list = field(default_factory=list)  # per invocation

    @property
    def timed(self) -> bool:
        """True when every invocation ran and was bracketed by speed probes."""
        inv = self.result.get("invocations", [])
        return (len(inv) == len(self.invocations)
                and len(self.result.get("probes", [])) == len(inv) + 1)

    @property
    def raw_wall_s(self) -> float:
        return sum(entry["seconds"] for entry in self.result["invocations"])

    @property
    def unstolen_s(self) -> float:
        """Invocation time less the hypervisor's steal, shared over the busy CPUs."""
        return sum(entry["seconds"] - entry["steal_s"] / busy
                   for entry, busy in zip(self.result["invocations"], self.busy_cpus))

    @property
    def wall_s(self) -> float:
        """Invocation times less steal, rescaled by their bracketing probes."""
        probes = self.result["probes"]
        return sum((entry["seconds"] - entry["steal_s"] / busy)
                   * CAL_REF_S / (0.5 * (probes[i] + probes[i + 1]))
                   for i, (entry, busy) in enumerate(zip(self.result["invocations"],
                                                         self.busy_cpus)))


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


class Runner:
    """Runs passes of one workload and tallies operations and failures."""

    def __init__(self, root: Path, workload, seed: int, deadline: float):
        self.root = root
        self.wl = workload
        self.seed = seed
        self.deadline = deadline
        self.work = root / WORK_DIR / workload.name
        self.attempted = 0
        self.failed = 0
        self.verdict_fail = 0
        self.failures = []
        self.setup_samples = []
        self.timings = []
        self.oracle = workload.oracle(seed)

    # -- passes ------------------------------------------------------------

    def run_pass(self, label, index, *, trace=False, workers=None, setup_only=False) -> Pass:
        d = self.work / label
        d.mkdir(parents=True)
        invocations = self.wl.invocations(self.seed, index)
        configs, argvs, outs, busy = [], [], [], []
        for inv in invocations:
            cfg_path = d / f"{inv.name}.json"
            cfg_path.write_text(json.dumps(inv.config))
            out = d / inv.name
            out.mkdir()
            argv = [inv.command, "--config", str(cfg_path), "--out", str(out)]
            w = workers if workers is not None else inv.workers
            if w is not None:
                argv += ["--workers", str(w)]
            busy.append(min(w or 1, os.cpu_count() or 1))
            configs.append([str(cfg_path), inv.command])
            argvs.append(argv)
            outs.append(str(out))
        plan_path = d / "plan.json"
        plan_path.write_text(json.dumps({
            "src": str(self.root / "src"), "configs": configs, "argv": argvs,
            "outs": outs, "trace": trace, "setup_only": setup_only,
            "label": f"{self.wl.name}/{self.seed}/{label}"}))
        p = Pass(label, invocations, d, busy_cpus=busy)
        with open(d / "client.log", "w") as log:
            stolen = steal_s()
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(HERE / "client.py"), str(plan_path)],
                                    cwd=self.root, stdout=log, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            try:
                proc.wait(timeout=max(1.0, self.deadline - t0))
            except subprocess.TimeoutExpired:
                p.timed_out = True
            finally:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
            p.seconds = time.perf_counter() - t0
        result_path = d / "result.json"
        if result_path.exists():
            p.result = json.loads(result_path.read_text())
            # one process runs the set-up, so all steal in between is its own
            p.ready_s = p.result["ready"] - t0 - (p.result["steal_at_ready"] - stolen)
            self.setup_samples.append(p.ready_s)
        if p.timed:
            self.timings.append({"pass": label, "unscaled_s": p.raw_wall_s,
                                 "unstolen_s": p.unstolen_s, "probes_s": p.result["probes"],
                                 "wall_s": p.wall_s})
        return p

    # -- checks --------------------------------------------------------------

    def check(self, p: Pass) -> dict:
        """Problems per invocation name: exit codes, exceptions, oracle bands."""
        problems = {}
        entries = p.result.get("invocations", [])
        for i, inv in enumerate(p.invocations):
            found = problems.setdefault(inv.name, [])
            if i >= len(entries):
                found.append("timed out" if p.timed_out else "no result (client died)")
                continue
            entry = entries[i]
            if entry["error"]:
                found.append("exception: " + entry["error"].strip().splitlines()[-1])
                continue
            if entry["code"] == 3:
                self.verdict_fail += 1
            elif entry["code"] != 0:
                found.append(f"exit code {entry['code']}")
                continue
            csv_path = p.dir / inv.name / inv.csv_name
            if not csv_path.exists():
                found.append(f"missing {inv.csv_name}")
                continue
            found += self.wl.check(inv, read_rows(csv_path), self.oracle)
        return problems

    @staticmethod
    def compare(reference: Pass, p: Pass, problems: dict, what: str):
        """Output files of ``p`` must be byte-identical to those of ``reference``."""
        for inv in p.invocations:
            for name in (inv.csv_name, inv.summary_name):
                a, b = reference.dir / inv.name / name, p.dir / inv.name / name
                if not (a.exists() and b.exists()):
                    continue
                if a.read_bytes() != b.read_bytes():
                    problems[inv.name].append(f"{name} differs from the {what} pass")

    def tally(self, p: Pass, problems: dict):
        for inv in p.invocations:
            self.attempted += 1
            if problems.get(inv.name):
                self.failed += 1
                self.failures.append(f"{p.label}/{inv.name}: " + "; ".join(problems[inv.name]))

    def rows(self, p: Pass, problems: dict):
        """CSV rows by invocation name, or None when any invocation failed."""
        if any(problems.get(inv.name) for inv in p.invocations):
            return None
        return {inv.name: read_rows(p.dir / inv.name / inv.csv_name) for inv in p.invocations}

    # -- runs ----------------------------------------------------------------

    def timed_run(self, seconds: float) -> tuple:
        for i in range(SETUP_PROBES):
            self.run_pass(f"setup{i}", 0, setup_only=True)
        reference = None
        if (self.wl.workers or 1) > 1:
            # criterion 10 on every run: one worker must give the same bytes;
            # run before the window, so that it leaves room for timed passes
            reference = self.run_pass("w1", 0, workers=1)
            self.tally(reference, self.check(reference))
        start = time.perf_counter()
        measured, headline = [], []
        index = 0
        while True:
            p = self.run_pass(f"pass{index}", index)
            problems = self.check(p)
            if index == 0 and reference is not None:
                self.compare(reference, p, problems, "1-worker")
            self.tally(p, problems)
            rows = self.rows(p, problems)
            if rows is not None:
                headline.append(self.wl.headline(rows))
            if p.timed:
                measured.append(p)
            index += 1
            now = time.perf_counter()
            per_pass = statistics.mean(q.seconds for q in measured) if measured else p.seconds
            # stop when the next pass would overrun by more than half a pass,
            # so that a run measures about `seconds` whatever the pass length
            if now - start + per_pass / 2 > seconds or now + 2 * per_pass > self.deadline:
                break
        metrics = {}
        if measured:
            wall = statistics.median(q.wall_s for q in measured)
            metrics["wall_s"] = wall
            raw = statistics.median(q.raw_wall_s for q in measured)
            metrics["peak_rss_mb"] = statistics.median(q.result["peak_rss_mb"] for q in measured)
            if headline:
                # SE and value pooled over passes: one pass's SE^2 is the mean of theirs
                se2 = statistics.mean(se * se for _, se in headline)
                value = statistics.mean(v for v, _ in headline)
                metrics["cost_to_1pct_s"] = wall * se2 / (0.01 * value) ** 2
        if self.setup_samples:
            metrics["setup_s"] = statistics.median(self.setup_samples)
        info = {"passes": len(measured), "measured_s": round(time.perf_counter() - start, 3),
                "setup_samples": len(self.setup_samples)}
        if measured:
            info["unscaled_wall_s"] = round(raw, 4)
            info["speed_factor"] = round(raw / wall, 4)
        return metrics, info

    def traced_run(self) -> tuple:
        base = self.run_pass("untraced", 0)
        self.tally(base, self.check(base))
        traced = self.run_pass("traced", 0, trace=True)
        problems = self.check(traced)
        self.compare(base, traced, problems, "untraced")
        self.tally(traced, problems)
        if "trace" not in traced.result or not traced.timed:
            return {}, {"missing_hooks": [], "flags": ["traced pass produced no trace"]}
        dump = traced.result["trace"]
        metrics, flags, details = layer_metrics(dump, traced.raw_wall_s)
        missing, errors = list(dump["missing"]), list(dump["errors"])
        if (self.wl.workers or 1) > 1:
            w1 = self.run_pass("traced_w1", 0, trace=True, workers=1)
            problems = self.check(w1)
            self.compare(base, w1, problems, "untraced multi-worker")
            self.tally(w1, problems)
            if "trace" in w1.result and w1.timed:
                m1, f1, d1 = layer_metrics(w1.result["trace"], w1.raw_wall_s)
                metrics = {k: v for k, v in metrics.items() if not k.startswith(KERNEL_PREFIXES)}
                metrics.update({k: v for k, v in m1.items() if k.startswith(KERNEL_PREFIXES)})
                flags += [f for f in f1 if f not in flags]
                details.update(d1)
                if "estimators.collect.busy_s" in metrics and "estimators.collect.busy_s" in m1:
                    metrics["estimators.parallel_efficiency"] = (
                        m1["estimators.collect.busy_s"]
                        / (self.wl.workers * metrics["estimators.collect.busy_s"]))
        elif "estimators.collect.busy_s" in metrics:
            metrics["estimators.parallel_efficiency"] = 0.0  # no process pool in this workload
        metrics["cli.output_bytes"] = traced.result["output_bytes"]
        if base.timed:
            metrics["trace.overhead_share"] = traced.wall_s / base.wall_s - 1.0
        info = {"missing_hooks": missing, "hook_errors": errors, "flags": flags, **details}
        return metrics, info


def _environment(seed: int, load_start) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": load_start, "loadavg_end": _loadavg(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV}, "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_start = time.perf_counter()
    load_start = _loadavg()
    root = Path.cwd()
    if not (root / "src" / "bridgeint" / "cli.py").is_file():
        print("perfbench: run from the root of a bridgeint checkout (src/bridgeint is missing)",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: the seed must be nonnegative", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "src"))

    wl = WORKLOADS[args.workload]
    work = root / WORK_DIR / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, wl, args.seed, t_start + RUN_DEADLINE_S)
    if args.trace:
        metrics, info = runner.traced_run()
        declared = bench["per_layer"]
    else:
        metrics, info = runner.timed_run(args.seconds)
        declared = bench["end_to_end"]

    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in declared if m["name"] in metrics}
    absent = [m["name"] for m in declared if m["name"] not in metrics]
    fail_share = runner.failed / max(runner.attempted, 1)
    env = _environment(args.seed, load_start)
    record = {"workload": wl.name, "trace": args.trace, "z_band": Z_BAND, "env": env,
              "info": info, "metrics": out, "absent": absent, "attempted": runner.attempted,
              "failed": runner.failed, "verdict_fail_exits": runner.verdict_fail,
              "failures": runner.failures, "timings": runner.timings,
              "setup_samples_s": runner.setup_samples}
    (work / "result.json").write_text(json.dumps(record, indent=1))

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {wl.why}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    for name, m in out.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    for name in absent:
        print(f"  {name:<40} absent")
    print(f"  fail_share {fail_share:.6g} ({runner.failed}/{runner.attempted} CLI invocations "
          f"failed; oracle band z={Z_BAND:g}; {runner.verdict_fail} verdict-FAIL exits)")
    for msg in runner.failures:
        print(f"  FAILED {msg}")
    print("env " + json.dumps(env))
    print(json.dumps({"correct": runner.failed == 0 and runner.attempted > 0,
                      "attempted": max(runner.attempted, 1), "failed": runner.failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
