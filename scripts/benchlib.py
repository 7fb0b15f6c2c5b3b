"""The harness of the per-layer benches: parent against change in alternating rounds.

A bench script defines ``time_round()``, which times its layer in the
running interpreter and returns, per case, a list of timings.  ``main``
gives the script its command line:

    python3 scripts/<bench>.py --parent <parent>/src --change src
    python3 scripts/<bench>.py --round

The first form runs ``rounds`` rounds.  Each round times both sides, each
in a fresh interpreter that imports bridgeint from its own src directory,
and alternates which side goes first, so that a drift in machine speed
falls on both.  The median and quartiles of each case's timings per side
go to the bench's JSON file in the working directory.  The second form
times one round of the importable bridgeint and prints it as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np


def run_round(script: str, src: str) -> dict:
    """One round of ``script`` in a fresh interpreter that imports bridgeint from ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, script, "--round"], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def summary(values, unit: str) -> dict:
    """Median and quartiles of ``values``, keyed by ``unit``, and their count."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {f"{unit}_median": round(float(median), 2),
            f"{unit}_q1": round(float(q1), 2),
            f"{unit}_q3": round(float(q3), 2),
            "calls": len(values)}


def main(argv, *, script: str, doc: str, time_round, layer: str, what: str, unit: str,
         out: str, rounds: int) -> int:
    """The command line of a bench: one round, or ``rounds`` alternating rounds of two sides."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
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
    samples = {side: {} for side in sides}
    for r in range(rounds):
        for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
            for name, values in run_round(script, sides[side]).items():
                samples[side].setdefault(name, []).extend(values)
    record = {
        "layer": layer,
        "what": what,
        "environment": {"numpy": np.__version__, "python": platform.python_version(),
                        "machine": platform.machine(), "nproc": len(os.sched_getaffinity(0))},
        "runs": {side: {name: summary(v, unit) for name, v in samples[side].items()}
                 for side in sides},
    }
    with open(out, "w") as fh:
        fh.write(json.dumps(record, indent=2) + "\n")
    for side in sides:
        for name, stats in record["runs"][side].items():
            print(f"{side} {name} {stats[f'{unit}_median']:.2f} {unit} "
                  f"[{stats[f'{unit}_q1']:.2f}, {stats[f'{unit}_q3']:.2f}]")
    return 0
