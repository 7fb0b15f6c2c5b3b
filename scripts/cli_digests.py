"""Run a fixed matrix of bridgeint CLI invocations and print output digests.

Each run prints its exit code and the sha256 of every file it wrote, in
file-name order.  The script runs ``python -m bridgeint`` in a fresh
interpreter with the caller's environment, so it exercises whichever
``bridgeint`` is importable (``PYTHONPATH=src`` for a checkout).  Running
it against two checkouts and diffing the outputs checks that a change
keeps every CLI output byte-identical:

    PYTHONPATH=src python3 scripts/cli_digests.py > after.txt

The script exits 1 when an exit code differs from the one recorded below,
or when the two runs of a worker-count twin (the same config at 1 and 2
workers) write files that hash differently; other hashes are printed,
not checked.  It exits 0 otherwise, and takes about a minute on a 2-vCPU
machine.
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
STEP = {"kind": "radial_step", "breakpoints": [0.6, 1.2], "heights": [1.2, 0.4]}

BRIDGE = {
    "dimension": 3, "potential": BALL, "statistic_kind": "bridge",
    "x": ZERO, "y": ZERO, "t": 10.0, "n_paths": 20000, "seed": 7,
}
README_MOMENTS = dict(BRIDGE, k_list=[1, 2])
# bridge k = 2 geometries beside x = y on the ball: collinear endpoints on
# two bands, endpoints off the support axis in d = 3 and 4, and an on-axis
# pair in d = 4
ORACLE_BRIDGES = dict(README_MOMENTS, n_paths=4000, grid={"h_fine": 0.01})
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
# two batches of free paths that leave the support's neighbourhood and
# skip grid nodes
FREE_SKIPPING = dict(FREE, n_paths=9000, free_horizon=400.0, grid={"h_fine": 0.01})
BLOCH = {
    "dimension": 3, "potential": BALL, "n_paths": 9000, "seed": 17,
    "bloch_points": [{"x": ZERO, "y": [0.5, 0.0, 0.0], "t": 1.0},
                     {"x": [-0.5, 0.0, 0.0], "y": [0.5, 0.0, 0.0], "t": 2.0}],
}
# a 4 x 4 x 4 table around 0, read on cell faces too: the start 0 of the
# first bridge lies on three of them
TABLE = {"kind": "tabulated", "origin": [-0.8, -0.8, -0.8], "spacing": 0.4,
         "values": [[[((i + 2 * j + 3 * k) % 5) / 4.0 for k in range(4)]
                     for j in range(4)] for i in range(4)]}
BLOCH_TAB = {
    "dimension": 3, "potential": TABLE, "n_paths": 9000, "seed": 19,
    "bloch_points": [{"x": ZERO, "y": [0.3, -0.2, 0.1], "t": 0.5},
                     {"x": [-0.5, 0.4, 0.0], "y": [0.5, -0.4, 0.2], "t": 1.0}],
}
THEOREM1_TAB = {
    "dimension": 3, "potential": TABLE, "x": ZERO, "y": ZERO,
    "horizons": [4.0, 16.0], "k_list": [1], "n_paths": 400, "target_n_paths": 800,
    "target_free_horizon": 25.0, "grid": {"h_fine": 0.02}, "seed": 53,
}
# two batches of bridges whose mgf rows take the exact E Z(t) and E Z(t)^2
# as a quadratic control, fitted on the whole sample
MGF_BRIDGE = dict(BRIDGE, t=4.0, n_paths=9000, alphas=[-1.0, 0.0, 0.5],
                  grid={"h_fine": 0.02}, seed=47)
# ends 3 apart over t = 0.1: Kac's resolvent refuses E Z^2 here, so the mgf
# rows keep E Z(t) alone as a linear control
MGF_BRIDGE_LINEAR = dict(BRIDGE, x=[1.5, 0.0, 0.0], y=[-1.5, 0.0, 0.0], t=0.1,
                         n_paths=2000, alphas=[-1.0, 0.5], grid={"h_fine": 0.002},
                         seed=67)

# (name, command, config, extra flags, expected exit code)
RUNS = [
    ("moments_readme", "moments", README_MOMENTS, [], 0),
    # no sweep reads target_n_paths and target_free_horizon, since every
    # mgf target is exact; 300 paths per horizon pass
    ("theorem1_readme_reduced", "theorem1", README_THEOREM1, [], 0),
    # a tabulated potential: exact targets from the cell operators.  The
    # default alphas are +-alpha0 / 2 = +-1.0291, from K1 at the sub-cell
    # centres; at alpha = +1.0291 the bridge mgf at t = 16 is still 0.45
    # (3.6 combined standard errors) below its limit, so that row fails
    ("theorem1_tabulated", "theorem1", THEOREM1_TAB, [], 3),
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
     dict(FREE, n_paths=2000, alphas=[-0.5, 0.0, 0.5, 40.0]), [], 0),
    ("moments_free", "moments", dict(FREE, n_paths=4000, k_list=[1, 2]), [], 0),
    # finite-horizon free targets, every row at the horizon 50: k = 1 from the
    # time rule, and k = 2 from the pair rule on a table and from Kac's
    # resolvent applied to 1 on a signed radial step.  The step's k = 1 row
    # passes (z = -0.56); its k = 2 row fails: past sqrt(t) the grid steps by
    # min(1, t / 100), which samples the paths' returns to the support
    # coarsely and reads E Y(50)^2 0.0936 +- 0.0041 against the exact 0.0712
    # (z = +5.4; paths on a uniform 0.02 grid read 0.0728 +- 0.0014)
    ("moments_free_tabulated", "moments",
     dict(FREE, potential=TABLE, n_paths=4000, k_list=[1, 2]), [], 0),
    ("moments_free_signed", "moments",
     dict(FREE, potential=SIGNED, n_paths=4000, k_list=[1, 2]), [], 3),
    # both legs to the free horizon, against the binomial sum at it
    ("moments_two_sided", "moments",
     dict(FREE, statistic_kind="two_sided", y=[0.5, 0.0, 0.0], n_paths=3000,
          k_list=[1, 2]), [], 0),
    # free legs are judged at their own horizon, so the tail correction
    # and its key are gone
    ("tail_correction_rejected", "moments",
     dict(FREE, n_paths=4000, k_list=[1], tail_correction=True), [], 2),
    # K1 and the exact alpha1 of a table, from its cell operators; the keys
    # of the Monte Carlo alpha1 probe that exact alpha1 replaced are errors
    ("bounds_tabulated", "bounds", {"dimension": 3, "potential": TABLE}, [], 0),
    ("bounds_probe_keys_rejected", "bounds",
     {"dimension": 3, "potential": BALL, "alphas": [0.0, 0.5, 20.0],
      "n_paths": 1500, "free_horizon": 50.0, "seed": 3}, [], 2),
    ("bloch_w1", "bloch", BLOCH, ["--workers", "1"], 0),
    ("bloch_w2", "bloch", BLOCH, ["--workers", "2"], 0),
    ("bloch_tab_w1", "bloch", BLOCH_TAB, ["--workers", "1"], 0),
    ("bloch_tab_w2", "bloch", BLOCH_TAB, ["--workers", "2"], 0),
    ("mgf_bridge_w1", "mgf", MGF_BRIDGE, ["--workers", "1"], 0),
    ("mgf_bridge_w2", "mgf", MGF_BRIDGE, ["--workers", "2"], 0),
    ("mgf_bridge_linear_fallback", "mgf", MGF_BRIDGE_LINEAR, [], 0),
    ("free_w1", "sample", FREE_SKIPPING, ["--workers", "1"], 0),
    ("free_w2", "sample", FREE_SKIPPING, ["--workers", "2"], 0),
    ("moments_step_collinear", "moments",
     dict(ORACLE_BRIDGES, potential=STEP, y=[1.5, 0.0, 0.0], t=8.0, seed=31), [], 0),
    ("moments_noncollinear_d3", "moments",
     dict(ORACLE_BRIDGES, x=[0.8, 0.6, 0.0], y=[-0.5, 1.0, 0.3], t=4.0, seed=37), [], 0),
    ("moments_on_axis_d4", "moments",
     dict(ORACLE_BRIDGES, dimension=4, x=[0.5, 0.0, 0.0, 0.0], y=[-1.0, 0.0, 0.0, 0.0],
          t=4.0, seed=41), [], 0),
    # at t = 2560 the k = 1 time rule takes ball probabilities of variance
    # up to t / 4, so its d = 3 CDF reaches the small-a series; the k = 2
    # target is Kac's resolvent
    ("moments_long_horizon", "moments",
     dict(README_MOMENTS, t=2560.0, n_paths=400, grid={"h_fine": 0.1}, seed=43), [], 0),
    ("moments_off_axis_d4", "moments",
     dict(ORACLE_BRIDGES, dimension=4, x=[0.5, 0.3, 0.0, 0.0], y=[-0.4, 0.2, 0.6, 0.0],
          t=3.0, seed=59), [], 0),
    # the tabulated bridge k = 2 target is the pair rule; the start 0 lies
    # on three cell faces
    ("moments_tabulated", "moments",
     dict(README_MOMENTS, potential=TABLE, t=4.0, n_paths=4000,
          grid={"h_fine": 0.02}, seed=61), [], 0),
    ("moments_k3", "moments",
     dict(README_MOMENTS, t=4.0, k_list=[1, 2, 3], n_paths=4000,
          grid={"h_fine": 0.02}), [], 0),
    # bridge k = 3 at a long horizon, where the tensor rule read 12.91
    # against the exact 16.09
    ("moments_k3_long_horizon", "moments",
     dict(README_MOMENTS, t=40.0, k_list=[1, 3], n_paths=4000,
          grid={"h_fine": 0.02}, seed=5), [], 0),
    # k = 3 of a table from the chain law, bridge and free, and of free and
    # two-sided legs on the ball from Kac's resolvent applied to 1
    ("moments_tabulated_k3", "moments",
     dict(README_MOMENTS, potential=TABLE, t=4.0, k_list=[1, 2, 3], n_paths=4000,
          grid={"h_fine": 0.02}, seed=61), [], 0),
    ("moments_free_k3", "moments", dict(FREE, n_paths=4000, k_list=[1, 2, 3]), [], 0),
    ("moments_free_tabulated_k3", "moments",
     dict(FREE, potential=TABLE, n_paths=4000, k_list=[1, 2, 3]), [], 0),
    ("moments_two_sided_k3", "moments",
     dict(FREE, statistic_kind="two_sided", y=[0.5, 0.0, 0.0], n_paths=3000,
          k_list=[1, 2, 3]), [], 0),
    ("mgf_signed_beyond_alpha0", "mgf",
     {"dimension": 3, "potential": SIGNED, "statistic_kind": "bridge",
      "x": ZERO, "y": ZERO, "t": 3.0, "alphas": [0.0, 0.5, 4.0],
      "n_paths": 1000, "grid": {"h_fine": 0.02}, "seed": 5}, [], 0),
    # the grid rule is fixed, so its removed keys are config errors, and so
    # is a fine step that is not positive and finite
    ("grid_u_rejected", "mgf",
     dict(FREE, n_paths=2000, alphas=[0.5], grid={"h_fine": 0.05, "u": 3.0}), [], 2),
    ("h_fine_zero", "moments", dict(README_MOMENTS, grid={"h_fine": 0.0}), [], 2),
    ("tabulated_empty_rejected", "moments",
     dict(README_MOMENTS, potential=dict(TABLE, values=[[[]]])), [], 2),
    # a key the run would not read is a config error: a bridge has no
    # truncation horizon, n_paths_by_horizon sets every budget, and a
    # sweep without alphas has no mgf target to size
    ("bridge_free_horizon_rejected", "moments",
     dict(README_MOMENTS, free_horizon=50.0), [], 2),
    ("sweep_both_budgets_rejected", "theorem1",
     dict(README_THEOREM1, n_paths=300), [], 2),
    ("sweep_no_alphas_target_rejected", "theorem1",
     dict({k: v for k, v in README_THEOREM1.items() if k != "target_free_horizon"},
          alphas=[]), [], 2),
    # every number is finite: json writes and reads NaN and Infinity
    ("nonfinite_alpha_rejected", "mgf",
     dict(FREE, n_paths=2000, alphas=[float("nan"), float("inf")]), [], 2),
]


# runs whose outputs must hash the same, file by file
TWINS = [("bloch_w1", "bloch_w2"), ("bloch_tab_w1", "bloch_tab_w2"),
         ("mgf_bridge_w1", "mgf_bridge_w2"), ("free_w1", "free_w2")]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_one(name, command, config, flags, root: Path):
    """Run one invocation; returns its exit code and (file name, sha256) pairs."""
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
    digests = [(path.name, _sha256(path))
               for path in (sorted(out.iterdir()) if out.exists() else [])]
    for file_name, digest in digests:
        print(f"  {file_name} {digest}")
    return proc.returncode, digests


def main() -> int:
    bad = []
    digests = {}
    with tempfile.TemporaryDirectory(prefix="cli_digests_") as tmp:
        for name, command, config, flags, expected in RUNS:
            code, digests[name] = run_one(name, command, config, flags, Path(tmp))
            if code != expected:
                bad.append(f"UNEXPECTED EXIT {name}: exit {code}, expected {expected}")
    for a, b in TWINS:
        if digests[a] != digests[b]:
            bad.append(f"TWIN MISMATCH {a} and {b} wrote different files")
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
