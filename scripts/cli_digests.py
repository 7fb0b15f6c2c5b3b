"""Run a fixed matrix of bridgeint CLI invocations and print output digests.

Each run prints its exit code and the sha256 of every file it wrote, in
file-name order.  The script runs ``python -m bridgeint`` in a fresh
interpreter with the caller's environment, so it exercises whichever
``bridgeint`` is importable (``PYTHONPATH=src`` for a checkout).  Running
it against two checkouts and diffing the outputs checks that a change
keeps every CLI output byte-identical:

    PYTHONPATH=src python3 scripts/cli_digests.py > after.txt

The script exits 1 when an exit code differs from the one recorded below
(the hashes are printed, not checked), and 0 otherwise.  It takes under
a minute on a 2-vCPU machine.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ZERO = [0.0, 0.0, 0.0]
BALL = {"kind": "ball_indicator", "radius": 1.0, "height": 1.0}
SIGNED = {"kind": "radial_step", "breakpoints": [0.5, 1.0], "heights": [1.0, -0.5]}

BRIDGE = {
    "dimension": 3, "potential": BALL, "statistic_kind": "bridge",
    "x": ZERO, "y": ZERO, "t": 10.0, "n_paths": 20000, "seed": 7,
}
README_MOMENTS = dict(BRIDGE, k_list=[1, 2])
README_THEOREM1 = {
    "dimension": 3, "potential": BALL, "x": ZERO, "y": ZERO,
    "horizons": [10.0, 100.0, 1000.0], "k_list": [1, 2],
    "n_paths_by_horizon": [300, 300, 300], "target_n_paths": 600,
    "target_free_horizon": 1600.0, "grid": {"h_fine": 0.004}, "seed": 2025,
}
THEOREM2 = {
    "dimension": 3, "potential": BALL, "x": ZERO, "horizons": [10.0, 100.0],
    "k_list": [1, 2], "n_paths": 1000, "target_n_paths": 2000,
    "grid": {"h_fine": 0.02}, "seed": 23,
}
LEMMA4 = {
    "dimension": 3, "potential": BALL, "horizons": [30.0, 120.0], "alphas": [0.3],
    "n_paths": 2000, "grid": {"h_fine": 0.05}, "seed": 29,
}
FREE = {
    "dimension": 3, "potential": BALL, "statistic_kind": "free", "x": ZERO,
    "free_horizon": 50.0, "grid": {"h_fine": 0.05}, "seed": 13,
}
BLOCH = {
    "dimension": 3, "potential": BALL, "n_paths": 9000, "seed": 17,
    "bloch_points": [{"x": ZERO, "y": [0.5, 0.0, 0.0], "t": 1.0},
                     {"x": [-0.5, 0.0, 0.0], "y": [0.5, 0.0, 0.0], "t": 2.0}],
}

# (name, command, config, extra flags, expected exit code)
RUNS = [
    ("moments_readme", "moments", README_MOMENTS, [], 0),
    ("theorem1_readme_reduced", "theorem1", README_THEOREM1, [], 0),
    ("theorem2_sqrt", "theorem2",
     dict(THEOREM2, endpoint_rule={"kind": "sqrt_t", "scale": 1.0}), [], 0),
    ("theorem2_fourth", "theorem2",
     dict(THEOREM2, endpoint_rule={"kind": "fourth_root", "scale": 1.0}), [], 3),
    ("lemma4_a", "lemma4",
     dict(LEMMA4, part="a", k_list=[1], target_n_paths=2000, x=ZERO,
          x_sequence=[[0.3, 0.0, 0.0], [0.1, 0.0, 0.0]]), [], 0),
    ("lemma4_b", "lemma4",
     dict(LEMMA4, part="b", x_sequence=[[6.0, 0.0, 0.0], [12.0, 0.0, 0.0]]), [], 3),
    ("sample_bridge", "sample",
     dict(BRIDGE, t=5.0, n_paths=500, grid={"h_fine": 0.02}), [], 0),
    ("sample_free", "sample", dict(FREE, n_paths=500), [], 0),
    ("mgf_free", "mgf",
     dict(FREE, n_paths=2000, alphas=[-0.5, 0.0, 0.5, 40.0],
          grid={"h_fine": 0.05, "u": 3.0}), [], 0),
    ("moments_free", "moments", dict(FREE, n_paths=4000, k_list=[1, 2]), [], 0),
    ("moments_two_sided_raw", "moments",
     dict(FREE, statistic_kind="two_sided", y=[0.5, 0.0, 0.0], n_paths=3000,
          k_list=[1, 2], tail_correction=False), [], 0),
    ("bounds_probe", "bounds",
     {"dimension": 3, "potential": BALL, "alphas": [0.0, 0.5, 20.0],
      "n_paths": 1500, "free_horizon": 50.0, "seed": 3}, [], 0),
    ("bloch_w1", "bloch", BLOCH, ["--workers", "1"], 0),
    ("bloch_w2", "bloch", BLOCH, ["--workers", "2"], 0),
    ("moments_k3", "moments",
     dict(README_MOMENTS, t=4.0, k_list=[1, 2, 3], n_paths=4000,
          grid={"h_fine": 0.02}), [], 0),
    ("mgf_signed_beyond_alpha0", "mgf",
     {"dimension": 3, "potential": SIGNED, "statistic_kind": "bridge",
      "x": ZERO, "y": ZERO, "t": 3.0, "alphas": [0.0, 0.5, 4.0],
      "n_paths": 1000, "grid": {"h_fine": 0.02}, "seed": 5}, [], 0),
]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_one(name, command, config, flags, root: Path) -> int:
    work = root / name
    out = work / "out"
    work.mkdir()
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(config))
    proc = subprocess.run(
        [sys.executable, "-m", "bridgeint", command, "--config", str(cfg_path),
         "--out", str(out), *flags],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=os.environ.copy())
    print(f"{name} exit={proc.returncode}")
    for path in sorted(out.iterdir()) if out.exists() else []:
        print(f"  {path.name} {_sha256(path)}")
    return proc.returncode


def main() -> int:
    bad = []
    with tempfile.TemporaryDirectory(prefix="cli_digests_") as tmp:
        for name, command, config, flags, expected in RUNS:
            code = run_one(name, command, config, flags, Path(tmp))
            if code != expected:
                bad.append(f"{name}: exit {code}, expected {expected}")
    for line in bad:
        print(f"UNEXPECTED EXIT {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
