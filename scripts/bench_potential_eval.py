"""Time one layer: potential evaluation, ``Potential.__call__`` on 8,192 x 3 points.

Three potentials, each called on a fixed block of 8,192 points in R^3,
the batch size of a path step:

- ``bloch_near_table``: the 6 x 6 x 6 table of the ``bloch_near`` benchmark
  workload (uniform values from generator seed 2004, origin -1.2, spacing
  0.4), at points inside it;
- ``unit_ball``: the unit ball indicator, at standard normal points;
- ``two_band_step``: the radial step [0.6, 1.2] / [1.2, 0.4], at standard
  normal points.

The script compares two checkouts, a parent and a change.  It runs 10
rounds; each round times both sides, in a fresh interpreter each, and
alternates which side goes first, so that a drift in machine speed falls
on both.  Each interpreter warms up, then times 20 calls per potential.
The median and quartiles over a side's 200 calls, in ns per point, go to
``BENCH_potential_eval.json`` in the working directory:

    python3 scripts/bench_potential_eval.py --parent <parent>/src --change src
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import numpy as np

N_POINTS = 8192
ROUNDS = 10
CALLS_PER_ROUND = 20
TABLE_SEED = 2004
OUT = "BENCH_potential_eval.json"


def cases():
    """(name, potential, points) for the three timed potentials."""
    from bridgeint.potentials import Potential

    gen = np.random.default_rng(11)
    table = Potential.tabulated(3, [-1.2, -1.2, -1.2], 0.4,
                                np.random.default_rng(TABLE_SEED).uniform(0.0, 1.0, (6, 6, 6)))
    normal = gen.normal(size=(N_POINTS, 3))
    return [
        ("bloch_near_table", table, gen.uniform(-1.2, 1.2, (N_POINTS, 3))),
        ("unit_ball", Potential.ball_indicator(3, 1.0), normal),
        ("two_band_step", Potential.radial_step(3, [0.6, 1.2], [1.2, 0.4]), normal),
    ]


def time_round() -> dict:
    """ns per point of each timed call of one round, per potential."""
    out = {}
    for name, v, pts in cases():
        for _ in range(5):
            v(pts)
        per_call = []
        for _ in range(CALLS_PER_ROUND):
            start = time.perf_counter_ns()
            v(pts)
            per_call.append((time.perf_counter_ns() - start) / N_POINTS)
        out[name] = per_call
    return out


def run_round(src: str) -> dict:
    """One round in a fresh interpreter that imports bridgeint from ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, __file__, "--round"], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def summary(per_call) -> dict:
    q1, median, q3 = np.percentile(per_call, [25, 50, 75])
    return {"ns_per_point_median": round(float(median), 2),
            "ns_per_point_q1": round(float(q1), 2),
            "ns_per_point_q3": round(float(q3), 2),
            "calls": len(per_call)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="src directory of the parent checkout")
    parser.add_argument("--change", help="src directory of the changed checkout")
    parser.add_argument("--round", action="store_true",
                        help="time one round of the importable bridgeint and print it")
    args = parser.parse_args(argv)
    if args.round:
        print(json.dumps(time_round()))
        return 0
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    calls = {side: {} for side in sides}
    for r in range(ROUNDS):
        for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
            for name, per_call in run_round(sides[side]).items():
                calls[side].setdefault(name, []).extend(per_call)
    record = {
        "layer": "potentials.eval",
        "what": (f"wall time of Potential.__call__ on {N_POINTS} x 3 points, ns per point; "
                 f"median and quartiles over {ROUNDS} alternating rounds of "
                 f"{CALLS_PER_ROUND} calls per side"),
        "environment": {"numpy": np.__version__, "python": platform.python_version(),
                        "machine": platform.machine(), "nproc": len(os.sched_getaffinity(0))},
        "runs": {side: {name: summary(c) for name, c in calls[side].items()} for side in sides},
    }
    with open(OUT, "w") as fh:
        fh.write(json.dumps(record, indent=2) + "\n")
    for side in sides:
        for name, stats in record["runs"][side].items():
            print(f"{side} {name} {stats['ns_per_point_median']:.2f} ns/point "
                  f"[{stats['ns_per_point_q1']:.2f}, {stats['ns_per_point_q3']:.2f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
