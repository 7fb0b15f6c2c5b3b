"""Strict JSON experiment configuration for the command-line interface.

Unknown keys are rejected so that typos fail loudly instead of silently
running a default, and a key is accepted only by the commands that read
it, so no setting is taken and then ignored.  Every number must be finite:
NaN and the infinities, which Python's json reads, are errors that name
their key.  Units: times are abstract
Brownian time, lengths are space units.  A summary file produced by a
previous run can be fed back as a config; its embedded ``resolved_config``
is used, which makes every run reproducible from its own output.
"""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

from .convergence import EndpointRule, SweepPlan
from .potentials import Potential

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
_GRID = {"grid", "grid.h_fine"}
_PATH = {"statistic_kind", "x", "y", "t", "free_horizon", "n_paths"} | _GRID
# target_n_paths and target_free_horizon sized the Monte Carlo mgf references
# that the exact gauge replaced.  No sweep reads them; they stay accepted, and
# checked, while the benchmark's t1_flagship workload still sets them.
_SWEEP = {"horizons", "alphas", "k_list", "n_paths", "n_paths_by_horizon",
          "target_n_paths", "target_free_horizon"} | _GRID

_COMMAND_KEYS = {
    "sample": _PATH,
    "mgf": _PATH | {"alphas"},
    "moments": _PATH | {"k_list"},
    "bounds": {"probe_points"},
    "theorem1": _SWEEP | {"x", "y"},
    "theorem2": _SWEEP | {"x", "endpoint_rule"},
    "lemma4": _SWEEP | {"part", "x", "x_sequence"},
    "bloch": {"bloch_points", "n_paths"} | _GRID,
}

_UNREAD_BY_KIND = {
    "bridge": ("free_horizon",),
    "free": ("t", "y"),
    "two_sided": ("t",),
}

_ENDPOINT_KEYS = {"kind", "scale"}


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _check_keys(keys, allowed: set, where: str):
    unknown = set(keys) - allowed
    _require(not unknown, f"unknown {where} keys: {sorted(unknown)}")


def _is_number(value) -> bool:
    # JSON true and false arrive as Python booleans, which are integers
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(value, name: str) -> int:
    """An integral number such as 20 or 20.0; a boolean or 20.9 is an error."""
    _require(_is_number(value) and float(value).is_integer(), f"{name} must be an integer")
    return int(value)


def _real(value, name: str, positive: bool = False) -> float:
    """A finite JSON number such as 2 or 0.5, and > 0 if ``positive``.

    A boolean, a string, NaN and an infinity (which Python's json reads)
    are errors.
    """
    _require(_is_number(value), f"{name} must be a number")
    value = float(value)
    if positive:
        _require(math.isfinite(value) and value > 0, f"{name} must be positive and finite")
    _require(math.isfinite(value), f"{name} must be finite")
    return value


def _all_numbers(values) -> bool:
    return all(_all_numbers(v) if isinstance(v, (list, tuple)) else _is_number(v)
               for v in values)


def _reals(values, name: str) -> np.ndarray:
    """A list, or nested lists, of finite JSON numbers as a float array."""
    _require(isinstance(values, (list, tuple)) and _all_numbers(values),
             f"{name} must be a list of numbers")
    out = np.asarray(values, dtype=float)
    _require(bool(np.all(np.isfinite(out))), f"{name} must hold finite numbers only")
    return out


def _integers(values, name: str) -> list:
    _require(isinstance(values, (list, tuple)), f"{name} must be a list of integers")
    return [_integer(k, name) for k in values]


def _point(p: np.ndarray, dim: int, name: str):
    _require(p.shape == (dim,), f"{name} dimension mismatch")


def parse_workers(value) -> int:
    """Worker count from a config value or the --workers override."""
    workers = _integer(value, "workers")
    _require(workers >= 1, "workers must be at least 1")
    return workers


def _build_potential(raw: dict, dim: int) -> Potential:
    _require(isinstance(raw, dict), "potential must be an object")
    kind = raw.get("kind")
    _require(kind in _POTENTIAL_KEYS, f"potential kind must be one of {sorted(_POTENTIAL_KEYS)}")
    _check_keys(raw, _POTENTIAL_KEYS[kind], "potential")
    center = None if raw.get("center") is None else _reals(raw["center"], "potential center")
    try:
        if kind == "ball_indicator":
            _require("radius" in raw, "ball_indicator needs a radius")
            return Potential.ball_indicator(dim, _real(raw["radius"], "potential radius"),
                                            height=_real(raw.get("height", 1.0),
                                                         "potential height"),
                                            center=center)
        if kind == "radial_step":
            _require("breakpoints" in raw and "heights" in raw,
                     "radial_step needs breakpoints and heights")
            return Potential.radial_step(dim, _reals(raw["breakpoints"], "potential breakpoints"),
                                         _reals(raw["heights"], "potential heights"),
                                         center=center)
        _require(all(k in raw for k in ("origin", "spacing", "values")),
                 "tabulated needs origin, spacing and values")
        return Potential.tabulated(dim, _reals(raw["origin"], "potential origin"),
                                   _real(raw["spacing"], "potential spacing"),
                                   _reals(raw["values"], "potential values"))
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
        self.dimension = _integer(raw["dimension"], "dimension")
        _require(self.dimension >= 3,
                 "bridgeint needs d >= 3 (transient dimension is assumed "
                 "throughout the limit statements)")
        _require("potential" in raw, "potential is required")
        self.potential = _build_potential(raw["potential"], self.dimension)
        _require(self.potential.support_radius > 0 or self.potential.is_zero,
                 "potential support radius must be positive unless v is zero")

        self.seed = _integer(raw.get("seed", 0), "seed")
        self.workers = parse_workers(raw.get("workers", 1))

        self.h_fine = _real(grid.get("h_fine", 0.01), "grid.h_fine", positive=True)

        self.statistic_kind = raw.get("statistic_kind", "bridge")
        _require(self.statistic_kind in ("bridge", "free", "two_sided"),
                 "statistic_kind must be bridge, free or two_sided")
        self.x = None if raw.get("x") is None else _reals(raw["x"], "x")
        self.y = None if raw.get("y") is None else _reals(raw["y"], "y")
        self.t = None if raw.get("t") is None else _real(raw["t"], "t", positive=True)
        self.free_horizon = None if raw.get("free_horizon") is None \
            else _real(raw["free_horizon"], "free_horizon", positive=True)
        if raw.get("target_free_horizon") is not None:
            _real(raw["target_free_horizon"], "target_free_horizon", positive=True)
        self.n_paths = _integer(raw.get("n_paths", 10_000), "n_paths")
        self.n_paths_by_horizon = None if raw.get("n_paths_by_horizon") is None \
            else _integers(raw["n_paths_by_horizon"], "n_paths_by_horizon")
        self.target_n_paths = None if raw.get("target_n_paths") is None \
            else _integer(raw["target_n_paths"], "target_n_paths")
        self.alphas = None if raw.get("alphas") is None \
            else _reals(raw["alphas"], "alphas").tolist()
        self.k_list = _integers(raw.get("k_list", [1, 2]), "k_list")
        self.horizons = None if raw.get("horizons") is None \
            else _reals(raw["horizons"], "horizons").tolist()
        self.part = raw.get("part", "a")
        _require(self.part in ("a", "b"), "lemma4 part must be 'a' or 'b'")
        self.x_sequence = raw.get("x_sequence")
        self.probe_points = raw.get("probe_points")
        self.bloch_points = raw.get("bloch_points")

        for p in (self.x, self.y):
            if p is not None:
                _point(p, self.dimension, "endpoint")
        _require(all(t > 0 for t in self.horizons or ()),
                 "every horizon must be positive and finite")
        budgets = [self.n_paths, *(self.n_paths_by_horizon or ()),
                   *([self.target_n_paths] if self.target_n_paths is not None else [])]
        _require(all(n >= 2 for n in budgets),
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
                self.endpoint_rule = EndpointRule(
                    kind, _real(er.get("scale", 1.0), "endpoint_rule.scale"))
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
            # a bridge runs to t; a free leg starts at x only and runs to
            # free_horizon
            for key in _UNREAD_BY_KIND[self.statistic_kind]:
                _require(self.raw.get(key) is None,
                         f"{c} with statistic_kind {self.statistic_kind} "
                         f"does not read {key!r}")
        # every run reports a statistic; a sweep without alphas picks its own
        if c == "mgf":
            _require(self.alphas, "mgf needs a non-empty alphas grid")
        if c == "moments":
            _require(self.k_list, "moments needs at least one k_list order")
        if c in ("theorem1", "theorem2", "lemma4"):
            moment_rows = self.k_list if c != "lemma4" or self.part == "a" else []
            _require(moment_rows or self.alphas != [],
                     f"{c} needs at least one statistic: a k_list order or an alpha")
            _require(self.raw.get("n_paths") is None or self.n_paths_by_horizon is None,
                     f"{c} does not read 'n_paths' beside n_paths_by_horizon, "
                     "which sets every horizon's budget")
            if self.alphas == []:
                for key in ("target_n_paths", "target_free_horizon"):
                    _require(self.raw.get(key) is None,
                             f"{c} does not read {key!r} without alphas: it "
                             "draws no mgf reference")
        if c in ("moments", "theorem1", "theorem2", "lemma4"):
            # the oracles stop at k = 2, except bridge k = 3 and the
            # infinite-horizon Green chain; a free or two-sided k = 3 sample
            # would need the finite-horizon free k = 3 moment
            k_top = 3 if c == "moments" and self.statistic_kind == "bridge" else 2
            where = f"moments with statistic_kind {self.statistic_kind}" \
                if c == "moments" else c
            _require(all(0 <= k <= k_top for k in self.k_list),
                     f"k_list orders must lie in 0..{k_top} for {where}")
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
            _require(isinstance(self.x_sequence, list) and self.x_sequence,
                     "lemma4 needs a non-empty x_sequence list of start points")
            for p in self.x_sequence:
                _point(_reals(p, "x_sequence point"), self.dimension, "x_sequence point")
            if self.part == "a":
                _require(self.x is not None, "lemma4 part a needs the limit point x")
            else:
                for key in ("x", "k_list", "target_n_paths", "target_free_horizon"):
                    _require(self.raw.get(key) is None,
                             f"lemma4 part b does not read {key!r}; it reports "
                             "|mgf - 1| along the start points x_sequence")
        if c == "bounds" and self.probe_points is not None:
            _require(isinstance(self.probe_points, list) and self.probe_points,
                     "probe_points must be a non-empty list of points")
            for p in self.probe_points:
                _point(_reals(p, "probe point"), self.dimension, "probe point")
        if c == "bloch":
            _require(self.bloch_points, "bloch needs a bloch_points list")
            for entry in self.bloch_points:
                _require(isinstance(entry, dict) and
                         set(entry) == {"x", "y", "t"},
                         "each bloch point needs exactly x, y and t")
                _point(_reals(entry["x"], "bloch x"), self.dimension, "bloch x")
                _point(_reals(entry["y"], "bloch y"), self.dimension, "bloch y")
                _real(entry["t"], "bloch t", positive=True)

    # -- derived objects -------------------------------------------------

    def budgets(self):
        if self.n_paths_by_horizon is not None:
            _require(self.horizons is not None and
                     len(self.n_paths_by_horizon) == len(self.horizons),
                     "n_paths_by_horizon must match the horizons grid")
            return self.n_paths_by_horizon
        return self.n_paths

    def sweep_plan(self) -> SweepPlan:
        theorem = {"theorem1": "T1",
                   "theorem2": {"sqrt_t": "T2b", "fourth_root": "T2a"}.get(
                       self.endpoint_rule.kind if self.endpoint_rule else None),
                   "lemma4": "L4a" if self.part == "a" else "L4b"}[self.command]
        kwargs = dict(
            theorem=theorem, horizons=self.horizons, x=self.x, y=self.y,
            alphas=self.alphas, budgets=self.budgets(), k_list=tuple(self.k_list),
            seed=self.seed, workers=self.workers, h_fine=self.h_fine,
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
    except (TypeError, ValueError, OverflowError) as exc:  # a value of the wrong type or form
        raise ConfigError(f"invalid config value: {exc}") from exc
