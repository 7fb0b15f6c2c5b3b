"""Benchmark workloads: the configs they generate and the oracle bands that check them.

Each workload is a fixed list of ``bridgeint`` CLI invocations.  Horizons,
grids, potentials and endpoints are fixed per workload because they decide
which layer does the work; only the seeds written into the configs change
from pass to pass.

Every output row is checked against a deterministic quadrature oracle.  The
band is ``Z_BAND`` combined standard errors, wide enough that a correct
change that draws different random numbers fails it with negligible
probability.  Oracle values do not depend on the Monte Carlo seed, so a
benchmark invocation computes them once, outside the timed region.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

Z_BAND = 5.0


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``bridgeint <command> --config <name>.json [--workers w]``."""

    name: str
    command: str
    config: dict
    workers: int | None = None

    @property
    def csv_name(self) -> str:
        return f"{self.command}.csv"

    @property
    def summary_name(self) -> str:
        return f"{self.command}_summary.json"


def pass_seed(seed: int, index: int) -> int:
    """Master seed written into the configs of pass ``index`` of a run."""
    return seed * 1000 + index


def read_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text: str) -> float | None:
    return float(text) if text not in ("", None) else None


def _finite_problems(row: dict) -> list:
    bad = [key for key in ("value", "std_error")
           if _num(row.get(key)) is None or not math.isfinite(_num(row[key]))]
    return [f"{row.get('statistic')} t={row.get('t')}: non-finite {key}" for key in bad]


def _band(label: str, value: float, se: float, target: float, terr: float) -> list:
    width = Z_BAND * (se + terr)
    if abs(value - target) <= width:
        return []
    return [f"{label}: |{value:.6g} - {target:.6g}| > {Z_BAND:g}*(se {se:.3g} + terr {terr:.3g})"]


def _quad():
    from bridgeint.config import load_config
    from bridgeint.quadrature import DEFAULT, moment_bridge, moment_two_sided
    return load_config, DEFAULT, moment_bridge, moment_two_sided


class Workload:
    name = ""
    why = ""
    workers = None

    def invocations(self, seed: int, index: int) -> list:
        raise NotImplementedError

    def oracle(self, seed: int) -> dict:
        raise NotImplementedError

    def check(self, inv: Invocation, rows: list, oracle: dict) -> list:
        """Problems found in one invocation's CSV rows; empty when correct."""
        raise NotImplementedError

    def headline(self, rows_by_name: dict) -> tuple:
        """(value, std_error) of the row that ``cost_to_1pct_s`` is quoted for."""
        raise NotImplementedError


# -- t1_flagship ----------------------------------------------------------------

class T1Flagship(Workload):
    """The README theorem-1 sweep with budgets cut to fit one run."""

    name = "t1_flagship"
    why = ("far-field path stepping in path_sim and potentials: 16,749 steps per "
           "bridge at t=1000 and 11,560 per free reference leg")
    horizons = (10.0, 100.0, 1000.0)
    budgets = (250, 500, 1500)
    target_paths = 1024

    def _config(self, seed: int) -> dict:
        return {
            "dimension": 3,
            "potential": {"kind": "ball_indicator", "radius": 1.0, "height": 1.0},
            "x": [0.0, 0.0, 0.0], "y": [0.0, 0.0, 0.0],
            "horizons": list(self.horizons), "k_list": [1, 2],
            "n_paths_by_horizon": list(self.budgets),
            "target_n_paths": self.target_paths,
            "target_free_horizon": 1600.0,
            "grid": {"h_fine": 0.004},
            "seed": seed,
        }

    def invocations(self, seed, index):
        return [Invocation("sweep", "theorem1", self._config(pass_seed(seed, index)))]

    def oracle(self, seed):
        load_config, qcfg, moment_bridge, moment_two_sided = _quad()
        cfg = load_config(self._config(seed), "theorem1")
        v, x, y = cfg.potential, cfg.x, cfg.y
        return {
            "bridge_k1": {t: moment_bridge(x, y, t, v, 1) for t in self.horizons},
            "bridge_k1_tol": qcfg.tolerance(1, v),
            "limit": {k: moment_two_sided(x, y, v, k) for k in (1, 2)},
            "limit_tol": {k: qcfg.tolerance(k, v, infinite_horizon=True) for k in (1, 2)},
        }

    def check(self, inv, rows, oracle):
        problems = []
        t_max = max(self.horizons)
        expected = {(stat, t) for t in self.horizons
                    for stat in ("bridge_moment", "bridge_mgf")}
        seen = set()
        for row in rows:
            stat, t = row["statistic"], float(row["t"])
            seen.add((stat, t))
            bad = _finite_problems(row)
            problems += bad
            if bad:
                continue
            value, se = float(row["value"]), float(row["std_error"])
            label = f"{stat}[{row['k_or_alpha']}] t={t:g}"
            if stat == "bridge_moment" and row["k_or_alpha"] == "1":
                m = oracle["bridge_k1"][t]
                problems += _band(label + " vs moment_bridge", value, se, m,
                                  oracle["bridge_k1_tol"] * abs(m))
            if t != t_max:
                continue
            if stat == "bridge_moment":
                k = int(row["k_or_alpha"])
                limit = oracle["limit"][k]
                terr = oracle["limit_tol"][k] * abs(limit)
                if _num(row["target"]) is None or abs(float(row["target"]) - limit) > terr:
                    problems.append(f"{label}: target column {row['target']} != oracle {limit!r}")
                problems += _band(label + " vs limit", value, se, limit, terr)
            elif stat == "bridge_mgf":
                target, terr = _num(row["target"]), _num(row["target_error"])
                if target is None or terr is None or not math.isfinite(target + terr):
                    problems.append(f"{label}: missing reference product")
                else:
                    problems += _band(label + " vs reference product", value, se,
                                      target, terr)
        problems += [f"missing rows {stat} t={t:g}" for stat, t in sorted(expected - seen)]
        return problems

    def headline(self, rows_by_name):
        for row in rows_by_name["sweep"]:
            if (row["statistic"] == "bridge_moment" and row["k_or_alpha"] == "1"
                    and float(row["t"]) == 1000.0):
                return float(row["value"]), float(row["std_error"])
        raise KeyError("bridge_moment k=1 t=1000")


# -- oracle_matrix --------------------------------------------------------------

_MATRIX_POTENTIALS = {
    "ball": {"kind": "ball_indicator", "radius": 1.0, "height": 1.0},
    "step": {"kind": "radial_step", "breakpoints": [0.6, 1.2], "heights": [1.2, 0.4]},
}
_MATRIX_ENDS = (
    ("0to0", [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], 6.0),
    ("0to1.5e1", [0.0, 0.0, 0.0], [1.5, 0.0, 0.0], 8.0),
    ("-e1to2e1", [-1.0, 0.0, 0.0], [2.0, 0.0, 0.0], 12.0),
)


class OracleMatrix(Workload):
    """Six ``moments`` runs whose time is mostly ``moment_bridge`` k=2."""

    name = "oracle_matrix"
    why = "quadrature-bound: about 83% of the time is moment_bridge k=2"
    ends = _MATRIX_ENDS
    n_paths = 4096

    def invocations(self, seed, index):
        out = []
        for pname, pot in _MATRIX_POTENTIALS.items():
            for ename, x, y, t in self.ends:
                out.append(Invocation(f"{pname}_{ename}", "moments", {
                    "dimension": 3, "potential": pot, "statistic_kind": "bridge",
                    "x": x, "y": y, "t": t, "k_list": [1, 2],
                    "n_paths": self.n_paths, "seed": pass_seed(seed, index)}))
        return out

    def oracle(self, seed):
        return {}

    def check(self, inv, rows, oracle):
        problems = []
        ks = set()
        for row in rows:
            ks.add(row["k_or_alpha"])
            bad = _finite_problems(row)
            problems += bad
            target, terr = _num(row["target"]), _num(row["target_error"])
            label = f"{inv.name} k={row['k_or_alpha']}"
            if target is None or terr is None or not math.isfinite(target + terr):
                problems.append(f"{label}: missing oracle target")
            elif not bad:
                problems += _band(label, float(row["value"]), float(row["std_error"]),
                                  target, terr)
        if ks != {"1", "2"}:
            problems.append(f"{inv.name}: moment rows {sorted(ks)}, expected ['1', '2']")
        return problems

    def headline(self, rows_by_name):
        for row in rows_by_name["ball_0to0"]:
            if row["k_or_alpha"] == "1":
                return float(row["value"]), float(row["std_error"])
        raise KeyError("ball_0to0 k=1")


# -- bloch_near -------------------------------------------------------------------

TABLE_SEED = 2004
_BLOCH_POINTS = (
    {"x": [0.3, -0.2, 0.1], "y": [-0.4, 0.5, 0.0], "t": 0.5},
    {"x": [0.0, 0.6, -0.3], "y": [0.2, -0.5, 0.4], "t": 1.0},
    {"x": [-0.7, 0.1, 0.2], "y": [0.6, 0.0, -0.5], "t": 2.0},
    {"x": [0.5, 0.5, 0.5], "y": [-0.5, -0.5, -0.5], "t": 4.0},
)


class BlochNear(Workload):
    """Bloch fundamental solution of a tabulated potential, both ends inside it."""

    name = "bloch_near"
    why = ("tabulated potential, paths never leave the support, and the only "
           "workload on the process-pool path of estimators._collect")
    workers = 2
    points = _BLOCH_POINTS
    n_paths = 16384

    def _config(self, mc_seed: int) -> dict:
        # The table is fixed: drawn from the seed it would change the relative
        # variance of bloch[3] by about 10% from seed to seed, and with it
        # cost_to_1pct_s.  The run's seed varies the Monte Carlo draws.
        values = np.random.default_rng(TABLE_SEED).uniform(0.0, 1.0, (6, 6, 6))
        return {
            "dimension": 3,
            "potential": {"kind": "tabulated", "origin": [-1.2, -1.2, -1.2],
                          "spacing": 0.4, "values": values.tolist()},
            "bloch_points": [dict(p) for p in self.points],
            "n_paths": self.n_paths,
            "grid": {"h_fine": 0.0025},
            "seed": mc_seed,
        }

    def invocations(self, seed, index):
        return [Invocation("bloch", "bloch", self._config(pass_seed(seed, index)),
                           workers=self.workers)]

    def oracle(self, seed):
        load_config, _, moment_bridge, _ = _quad()
        from bridgeint.gaussian import transition_density
        v = load_config(self._config(seed), "bloch").potential
        out = []
        for p in self.points:
            x, y = np.asarray(p["x"]), np.asarray(p["y"])
            out.append({"t": p["t"], "kernel": transition_density(p["t"], y - x),
                        "m1": moment_bridge(x, y, p["t"], v, 1)})
        return {"points": out}

    def check(self, inv, rows, oracle):
        problems = []
        points = oracle["points"]
        if len(rows) != len(points):
            problems.append(f"{len(rows)} bloch rows, expected {len(points)}")
        for row, ref in zip(rows, points):
            bad = _finite_problems(row)
            problems += bad
            if bad:
                continue
            value, se = float(row["value"]), float(row["std_error"])
            kernel = ref["kernel"]
            lower = kernel * math.exp(-ref["m1"]) - Z_BAND * se
            if not (lower <= value <= kernel * (1.0 + 1e-12)):
                problems.append(f"{row['statistic']} t={ref['t']:g}: {value:.6g} outside "
                                f"[{lower:.6g}, {kernel:.6g}] (Jensen - {Z_BAND:g} se, kernel)")
        return problems

    def headline(self, rows_by_name):
        # the longest horizon: bloch[3], t=4, in the full workload
        row = rows_by_name["bloch"][len(self.points) - 1]
        return float(row["value"]), float(row["std_error"])


WORKLOADS = {w.name: w for w in (T1Flagship(), OracleMatrix(), BlochNear())}
