"""Strict JSON experiment configuration for the command-line interface.

Unknown keys are rejected so that typos fail loudly instead of silently
running a default, and a key is accepted only by the commands that read
it, so no setting is taken and then ignored.  Units: times are abstract
Brownian time, lengths are space units.  A summary file produced by a
previous run can be fed back as a config; its embedded ``resolved_config``
is used, which makes every run reproducible from its own output.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .convergence import EndpointRule, SweepPlan
from .potentials import Potential
from .quadrature import _bridge_axis_frame

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_workers"]


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


_POTENTIAL_KEYS = {
    "ball_indicator": {"kind", "radius", "height", "center"},
    "radial_step": {"kind", "breakpoints", "heights", "center"},
    "tabulated": {"kind", "origin", "spacing", "values"},
}

_BASE_KEYS = {"dimension", "potential", "seed", "workers"}

# keys are per command and accepted only where the command reads them;
# grid keys are written "grid.<key>"
_GRID = {"grid", "grid.h_fine", "grid.h_coarse"}
_PATH = {"statistic_kind", "x", "y", "t", "free_horizon", "n_paths", "grid.u"} | _GRID
_SWEEP = {"horizons", "alphas", "k_list", "n_paths", "n_paths_by_horizon",
          "target_n_paths", "target_free_horizon"} | _GRID

_COMMAND_KEYS = {
    "sample": _PATH,
    "mgf": _PATH | {"alphas", "tail_correction"},
    "moments": _PATH | {"k_list", "tail_correction"},
    "bounds": {"probe_points", "alphas", "n_paths", "free_horizon", "x"},
    "theorem1": _SWEEP | {"x", "y"},
    "theorem2": _SWEEP | {"x", "endpoint_rule"},
    "lemma4": _SWEEP | {"part", "x", "x_sequence"},
    "bloch": {"bloch_points", "n_paths", "grid.u"} | _GRID,
}

_ENDPOINT_KEYS = {"kind", "scale"}


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _check_keys(keys, allowed: set, where: str):
    unknown = set(keys) - allowed
    _require(not unknown, f"unknown {where} keys: {sorted(unknown)}")


def _positive(value: float, name: str):
    _require(math.isfinite(value) and value > 0, f"{name} must be positive and finite")


def _point(p: np.ndarray, dim: int, name: str):
    _require(p.shape == (dim,), f"{name} dimension mismatch")
    _require(bool(np.all(np.isfinite(p))), f"{name} coordinates must be finite")


def parse_workers(value) -> int:
    """Worker count from a config value or the --workers override."""
    workers = int(value)
    _require(workers >= 1, "workers must be at least 1")
    return workers


def _build_potential(raw: dict, dim: int) -> Potential:
    _require(isinstance(raw, dict), "potential must be an object")
    kind = raw.get("kind")
    _require(kind in _POTENTIAL_KEYS, f"potential kind must be one of {sorted(_POTENTIAL_KEYS)}")
    _check_keys(raw, _POTENTIAL_KEYS[kind], "potential")
    try:
        if kind == "ball_indicator":
            _require("radius" in raw, "ball_indicator needs a radius")
            return Potential.ball_indicator(dim, float(raw["radius"]),
                                            height=float(raw.get("height", 1.0)),
                                            center=raw.get("center"))
        if kind == "radial_step":
            _require("breakpoints" in raw and "heights" in raw,
                     "radial_step needs breakpoints and heights")
            return Potential.radial_step(dim, raw["breakpoints"], raw["heights"],
                                         center=raw.get("center"))
        _require(all(k in raw for k in ("origin", "spacing", "values")),
                 "tabulated needs origin, spacing and values")
        return Potential.tabulated(dim, raw["origin"], float(raw["spacing"]), raw["values"])
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid potential: {exc}") from exc


class ExperimentConfig:
    """Parsed, validated and resolved configuration for one command."""

    def __init__(self, command: str, raw: dict):
        _require(command in _COMMAND_KEYS, f"unknown command {command!r}")
        _require(isinstance(raw, dict), "the configuration must be a JSON object")
        self.command = command
        allowed = _BASE_KEYS | _COMMAND_KEYS[command]
        _check_keys(raw, allowed, "config")
        grid = raw.get("grid", {})
        _require(isinstance(grid, dict), "grid must be an object")
        _check_keys({f"grid.{k}" for k in grid}, allowed, "config")
        self.raw = dict(raw)

        _require("dimension" in raw, "dimension is required")
        self.dimension = int(raw["dimension"])
        _require(self.dimension >= 3,
                 "bridgeint needs d >= 3 (transient dimension is assumed "
                 "throughout the limit statements)")
        _require("potential" in raw, "potential is required")
        self.potential = _build_potential(raw["potential"], self.dimension)
        _require(self.potential.support_radius > 0 or self.potential.is_zero,
                 "potential support radius must be positive unless v is zero")

        self.seed = int(raw.get("seed", 0))
        self.workers = parse_workers(raw.get("workers", 1))
        self.tail_correction = bool(raw.get("tail_correction", True))

        self.h_fine = float(grid.get("h_fine", 0.01))
        self.h_coarse = None if grid.get("h_coarse") is None else float(grid["h_coarse"])
        self.refine_window = None if grid.get("u") is None else float(grid["u"])

        self.statistic_kind = raw.get("statistic_kind", "bridge")
        _require(self.statistic_kind in ("bridge", "free", "two_sided"),
                 "statistic_kind must be bridge, free or two_sided")
        self.x = None if raw.get("x") is None else np.asarray(raw["x"], dtype=float)
        self.y = None if raw.get("y") is None else np.asarray(raw["y"], dtype=float)
        self.t = None if raw.get("t") is None else float(raw["t"])
        self.free_horizon = None if raw.get("free_horizon") is None \
            else float(raw["free_horizon"])
        self.target_free_horizon = None if raw.get("target_free_horizon") is None \
            else float(raw["target_free_horizon"])
        self.n_paths = int(raw.get("n_paths", 10_000))
        self.n_paths_by_horizon = raw.get("n_paths_by_horizon")
        self.target_n_paths = None if raw.get("target_n_paths") is None \
            else int(raw["target_n_paths"])
        self.alphas = None if raw.get("alphas") is None \
            else [float(a) for a in raw["alphas"]]
        self.k_list = [int(k) for k in raw.get("k_list", [1, 2])]
        self.horizons = None if raw.get("horizons") is None \
            else [float(t) for t in raw["horizons"]]
        self.part = raw.get("part", "a")
        _require(self.part in ("a", "b"), "lemma4 part must be 'a' or 'b'")
        self.x_sequence = raw.get("x_sequence")
        self.probe_points = raw.get("probe_points")
        self.bloch_points = raw.get("bloch_points")

        for p in (self.x, self.y):
            if p is not None:
                _point(p, self.dimension, "endpoint")
        times = {"t": self.t, "free_horizon": self.free_horizon,
                 "target_free_horizon": self.target_free_horizon}
        for name, value in times.items():
            if value is not None:
                _positive(value, name)
        for t in self.horizons or ():
            _positive(t, "every horizon")
        budgets = [self.n_paths, *(self.n_paths_by_horizon or ()),
                   *([self.target_n_paths] if self.target_n_paths is not None else [])]
        _require(all(int(n) >= 2 for n in budgets),
                 "n_paths, n_paths_by_horizon and target_n_paths must be at least 2")

        self.endpoint_rule = None
        if raw.get("endpoint_rule") is not None:
            er = raw["endpoint_rule"]
            _require(isinstance(er, dict), "endpoint_rule must be an object")
            _check_keys(er, _ENDPOINT_KEYS, "endpoint_rule")
            kind = er.get("kind")
            _require(kind in ("sqrt_t", "fourth_root"),
                     "endpoint_rule kind must be sqrt_t or fourth_root")
            try:
                self.endpoint_rule = EndpointRule(kind, er.get("scale", 1.0))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc

        self._validate_command()

    def _validate_command(self):
        c = self.command
        if c in ("sample", "mgf", "moments"):
            _require(self.x is not None, f"{c} needs a start point x")
            if self.statistic_kind == "bridge":
                _require(self.y is not None and self.t is not None,
                         "bridge statistics need endpoints x, y and horizon t")
            if self.statistic_kind == "two_sided":
                _require(self.y is not None, "two_sided statistics need both endpoints")
        # every run reports a statistic; a sweep without alphas picks its own
        if c == "mgf":
            _require(self.alphas, "mgf needs a non-empty alphas grid")
        if c == "moments":
            _require(self.k_list, "moments needs at least one k_list order")
        if c in ("theorem1", "theorem2", "lemma4"):
            moment_rows = self.k_list if c != "lemma4" or self.part == "a" else []
            _require(moment_rows or self.alphas != [],
                     f"{c} needs at least one statistic: a k_list order or an alpha")
        if c in ("moments", "theorem1", "theorem2", "lemma4"):
            # the oracles stop at k = 2, except the k = 3 bridge tensor rule;
            # a free k = 3 sample would need the finite-horizon k = 3 moment
            k_top = 3 if c == "moments" and self.statistic_kind != "free" else 2
            where = f"moments with statistic_kind {self.statistic_kind}" \
                if c == "moments" else c
            _require(all(0 <= k <= k_top for k in self.k_list),
                     f"k_list orders must lie in 0..{k_top} for {where}")
        if c == "moments" and self.statistic_kind == "bridge" and 2 in self.k_list:
            # the radial k = 2 bridge oracle takes endpoints off the support
            # axis in d = 3 only; "off the axis" is the oracle's own test
            v = self.potential
            if self.dimension != 3 and v.is_radial and not v.is_zero:
                on_axis = all(_bridge_axis_frame(p, q, v)[-1]
                              for p, q in ((self.x, self.y), (self.y, self.x)))
                _require(on_axis, "moments k = 2 for a bridge with endpoints off the "
                                  "support axis is computed for d = 3 only")
        if c == "theorem1":
            _require(self.x is not None and self.y is not None,
                     "theorem1 needs fixed endpoints x and y")
            _require(self.horizons is not None, "theorem1 needs a horizons grid")
        if c == "theorem2":
            _require(self.x is not None, "theorem2 needs the start point x")
            _require(self.endpoint_rule is not None and
                     self.endpoint_rule.kind in ("sqrt_t", "fourth_root"),
                     "theorem2 needs a growing endpoint_rule (sqrt_t or fourth_root)")
            _require(self.horizons is not None, "theorem2 needs a horizons grid")
        if c == "lemma4":
            _require(self.horizons is not None, "lemma4 needs a horizons grid")
            _require(self.x_sequence is not None, "lemma4 needs x_sequence")
            for p in self.x_sequence:
                _point(np.asarray(p, dtype=float), self.dimension, "x_sequence point")
            if self.part == "a":
                _require(self.x is not None, "lemma4 part a needs the limit point x")
            else:
                for key in ("x", "k_list", "target_n_paths", "target_free_horizon"):
                    _require(self.raw.get(key) is None,
                             f"lemma4 part b does not read {key!r}; it reports "
                             "|mgf - 1| along the start points x_sequence")
        if c == "bounds":
            if self.probe_points is not None:
                _require(isinstance(self.probe_points, list) and self.probe_points,
                         "probe_points must be a non-empty list of points")
                for p in self.probe_points:
                    _point(np.asarray(p, dtype=float), self.dimension, "probe point")
            alphas = self.alphas or []
            _require(all(b > a for a, b in zip(alphas, alphas[1:])),
                     "bounds alphas (the divergence probe grid) must be strictly increasing")
        if c == "bloch":
            _require(self.bloch_points, "bloch needs a bloch_points list")
            for entry in self.bloch_points:
                _require(isinstance(entry, dict) and
                         set(entry) == {"x", "y", "t"},
                         "each bloch point needs exactly x, y and t")
                _point(np.asarray(entry["x"], dtype=float), self.dimension, "bloch x")
                _point(np.asarray(entry["y"], dtype=float), self.dimension, "bloch y")
                _positive(float(entry["t"]), "bloch t")

    # -- derived objects -------------------------------------------------

    def budgets(self):
        if self.n_paths_by_horizon is not None:
            _require(self.horizons is not None and
                     len(self.n_paths_by_horizon) == len(self.horizons),
                     "n_paths_by_horizon must match the horizons grid")
            return [int(n) for n in self.n_paths_by_horizon]
        return self.n_paths

    def sweep_plan(self) -> SweepPlan:
        theorem = {"theorem1": "T1",
                   "theorem2": {"sqrt_t": "T2b", "fourth_root": "T2a"}.get(
                       self.endpoint_rule.kind if self.endpoint_rule else None),
                   "lemma4": "L4a" if self.part == "a" else "L4b"}[self.command]
        kwargs = dict(
            theorem=theorem, horizons=self.horizons, x=self.x, y=self.y,
            alphas=self.alphas, budgets=self.budgets(),
            target_budget=self.target_n_paths, k_list=tuple(self.k_list),
            seed=self.seed, workers=self.workers, h_fine=self.h_fine,
            h_coarse=self.h_coarse, target_free_horizon=self.target_free_horizon,
        )
        if self.command == "theorem2":
            kwargs["endpoint_rule"] = self.endpoint_rule
        if self.command == "lemma4":
            kwargs["x_sequence"] = tuple(np.asarray(p, float) for p in self.x_sequence)
            if self.part == "b":
                kwargs["x"] = kwargs["x_sequence"][0]
        try:
            return SweepPlan(**kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def resolved(self) -> dict:
        # worker count is execution machinery with no effect on results,
        # so it is excluded: outputs must be byte-identical across pools
        out = {k: v for k, v in self.raw.items() if k != "workers"}
        out.setdefault("seed", self.seed)
        return out


def load_config(path_or_dict, command: str) -> ExperimentConfig:
    """Load a config file (or dict); summary files round-trip transparently."""
    if isinstance(path_or_dict, dict):
        raw = path_or_dict
    else:
        try:
            with open(path_or_dict) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if isinstance(raw, dict) and "resolved_config" in raw:
        raw = raw["resolved_config"]
    try:
        return ExperimentConfig(command, raw)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:  # a value of the wrong type or form
        raise ConfigError(f"invalid config value: {exc}") from exc
