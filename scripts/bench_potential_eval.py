"""Time one layer: potential evaluation, ``Potential.__call__`` on 8,192 x 3 points.

Three potentials, each called on a fixed block of 8,192 points in R^3,
the batch size of a path step:

- ``bloch_near_table``: the 6 x 6 x 6 table of the ``bloch_near`` benchmark
  workload (uniform values from generator seed 2004, origin -1.2, spacing
  0.4), at points inside it;
- ``unit_ball``: the unit ball indicator, at standard normal points;
- ``two_band_step``: the radial step [0.6, 1.2] / [1.2, 0.4], at standard
  normal points.

The script compares two checkouts, a parent and a change, in 10
alternating rounds of fresh interpreters (``benchlib``).  Each interpreter
warms up, then times 20 calls per potential.  The median and quartiles
over a side's 200 calls, in ns per point, go to
``BENCH_potential_eval.json`` in the working directory:

    python3 scripts/bench_potential_eval.py --parent <parent>/src --change src
"""

from __future__ import annotations

import sys
import time

import numpy as np

import benchlib

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


def main(argv=None) -> int:
    return benchlib.main(
        argv, script=__file__, doc=__doc__, time_round=time_round, layer="potentials.eval",
        what=(f"wall time of Potential.__call__ on {N_POINTS} x 3 points, ns per point; "
              f"median and quartiles over {ROUNDS} alternating rounds of "
              f"{CALLS_PER_ROUND} calls per side"),
        unit="ns_per_point", out=OUT, rounds=ROUNDS)


if __name__ == "__main__":
    sys.exit(main())
