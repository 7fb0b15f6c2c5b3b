"""Time one layer: the radial oracles, the gauge with alpha1 and Kac's resolvent, cold caches.

Seven cases, each timed as one call sequence with every cache of the
package cleared first:

- ``gauge_unit_ball``: ``alpha1_interval`` of the d = 3 unit ball, then
  ``mgf_one_sided`` from its centre at -alpha0/2 and +alpha0/2;
- ``k2_<potential>_<ends>``: ``moment_bridge`` k = 2 on the six cases of
  the ``oracle_matrix`` benchmark workload (the unit ball and the radial
  step [0.6, 1.2] / [1.2, 0.4], each with the endpoint pairs 0 -> 0 over
  t = 6, 0 -> 1.5 e1 over t = 8 and -e1 -> 2 e1 over t = 12).  Each
  call also finds alpha1 of |v|, which sets the resolvent's Cauchy circle.

The script compares two checkouts, a parent and a change, in 10
alternating rounds of fresh interpreters (``benchlib``).  Each
interpreter runs every case once to warm up, then times it 3 times.  The
median and quartiles over a side's 30 timings, in ms, go to
``BENCH_radial_oracles.json`` in the working directory:

    python3 scripts/bench_radial_oracles.py --parent <parent>/src --change src
"""

from __future__ import annotations

import sys
import time

import benchlib

ROUNDS = 10
CALLS_PER_ROUND = 3
OUT = "BENCH_radial_oracles.json"
MATRIX_ENDS = (
    ("0to0", [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], 6.0),
    ("0to1.5e1", [0.0, 0.0, 0.0], [1.5, 0.0, 0.0], 8.0),
    ("-e1to2e1", [-1.0, 0.0, 0.0], [2.0, 0.0, 0.0], 12.0),
)


def clear_caches():
    """Empty the cache of every cached function of the imported bridgeint modules."""
    for name, module in list(sys.modules.items()):
        if name.startswith("bridgeint"):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def cases():
    """(name, call) for the timed cases."""
    from bridgeint.green import alpha1_interval, k1_bound, mgf_one_sided
    from bridgeint.potentials import Potential
    from bridgeint.quadrature import moment_bridge

    ball = Potential.ball_indicator(3, 1.0)
    step = Potential.radial_step(3, [0.6, 1.2], [1.2, 0.4])

    def gauge():
        alpha1_interval(ball)
        half = 0.5 * k1_bound(ball).alpha0
        for alpha in (-half, half):
            mgf_one_sided([0.0, 0.0, 0.0], ball, alpha)

    out = [("gauge_unit_ball", gauge)]
    for pname, v in (("ball", ball), ("step", step)):
        for ename, x, y, t in MATRIX_ENDS:
            out.append((f"k2_{pname}_{ename}",
                        lambda x=x, y=y, t=t, v=v: moment_bridge(x, y, t, v, 2)))
    return out


def time_round() -> dict:
    """ms of each timed call of one round, per case."""
    out = {}
    for name, call in cases():
        clear_caches()
        call()
        per_call = []
        for _ in range(CALLS_PER_ROUND):
            clear_caches()
            start = time.perf_counter_ns()
            call()
            per_call.append((time.perf_counter_ns() - start) / 1e6)
        out[name] = per_call
    return out


def main(argv=None) -> int:
    return benchlib.main(
        argv, script=__file__, doc=__doc__, time_round=time_round, layer="green.radial",
        what=("wall time of the radial oracles with cold caches, ms per case; median and "
              f"quartiles over {ROUNDS} alternating rounds of {CALLS_PER_ROUND} calls per side"),
        unit="ms", out=OUT, rounds=ROUNDS)


if __name__ == "__main__":
    sys.exit(main())
