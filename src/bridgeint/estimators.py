"""Monte Carlo estimators for moments, mgfs and the Bloch kernel value.

Samples are drawn in fixed-size batches, each batch on its own
counter-based stream, so estimates are bitwise reproducible for a given
(master seed, batch size) regardless of worker count.  Reduction happens
on the concatenated sample array in batch order.

On a bridge, E exp(alpha Z) uses the exact mean m1 = E Z(t) from
``quadrature.moment_bridge`` as a linear control (Lavenberg & Welch 1981;
Glasserman 2003, section 4.1): the estimate is mean(f) - beta (mean(Z) - m1)
with f = exp(alpha Z) and beta the least-squares slope of f on Z, both
fitted on the whole sample.  Its standard error is the residual one,
combined with beta times the oracle's declared error on m1.  The plain
mean is kept for alpha = 0, an overflowed f, a constant Z and fewer than
3 paths.  Free and two-sided samples, and the sweeps' mgf rows, pass no
control and keep the plain mean.

Free and two-sided integrals are truncated at a finite horizon.  For
first moments the estimator adds the closed-form Green potential of the
terminal position, which removes the truncation bias of the mean entirely
(tower property); the correction is optional and applies only where it is
unbiased.  The mgf estimator applies the same correction inside the
exponent, which cancels the first-order truncation bias and leaves a
documented second-order one.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .gaussian import transition_density
from .path_sim import (
    BATCH_SIZE,
    TimeGrid,
    bridge_integral_batch,
    free_integral_batch,
    stream,
)
from .green import green_potential, green_potential_radial, k1_bound
from .potentials import Potential
from .quadrature import DEFAULT, moment_bridge

__all__ = [
    "McEstimate",
    "LinearControl",
    "MgfCurve",
    "EstimatorConfig",
    "tail_corrected",
    "mc_moment",
    "mc_mgf",
    "alpha1_divergence_probe",
    "bloch_green",
]

_KINDS = ("bridge", "free", "two_sided")


@dataclass(frozen=True)
class LinearControl:
    """How an estimate used the exact mean m1 of Z as a linear control.

    ``gap`` is mean(Z) - m1 on the sample, with standard error
    ``gap_error``; ``beta`` is in the units of the estimate, so
    ``beta * gap`` is what the control subtracted from the plain mean, and
    with it the bias that a discretization error in Z transfers.
    ``m1_error`` is the oracle's declared absolute error on m1.
    """

    m1: float
    m1_error: float
    beta: float
    gap: float
    gap_error: float

    def as_dict(self):
        return {"m1": self.m1, "m1_error": self.m1_error, "beta": self.beta,
                "gap": self.gap, "gap_error": self.gap_error}


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with plug-in standard error and a dominance diagnostic.

    ``max_sample_share`` is the fraction of sum |x_i| carried by the
    single largest |x_i|; values near 1 mean the estimate is a fluke of
    one path, the empirical signature of a diverging mgf.
    """

    mean: float
    std_error: float
    n: int
    max_sample_share: float = 0.0
    control: LinearControl | None = None

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("standard error must be nonnegative")
        if self.n >= 2 and not (0.0 <= self.max_sample_share <= 1.0):
            raise ValueError("max_sample_share must lie in [0, 1]")

    @classmethod
    def from_samples(cls, values: np.ndarray) -> "McEstimate":
        values = np.asarray(values, dtype=float)
        n = values.size
        if n < 2:
            raise ValueError("at least 2 samples are needed for a standard error")
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1) / math.sqrt(n))
        total = float(np.sum(np.abs(values)))
        if not np.all(np.isfinite(values)):
            # an overflowed sample (an mgf past its blow-up) dominates by definition
            share = 1.0
        else:
            share = float(np.max(np.abs(values)) / total) if total > 0 else 0.0
        return cls(mean=mean, std_error=se, n=n, max_sample_share=share)

    def as_dict(self):
        return {"mean": self.mean, "std_error": self.std_error,
                "n": self.n, "max_sample_share": self.max_sample_share}


@dataclass(frozen=True)
class MgfCurve:
    """Per-alpha mgf estimates with heavy-tail instability flags."""

    alphas: np.ndarray
    estimates: list
    unstable: np.ndarray

    @property
    def bracket(self) -> tuple:
        """(largest stable alpha, smallest unstable alpha), None for a side never reached.

        On an increasing grid this brackets the empirical blow-up; it is a
        heavy-tail diagnostic, not the true divergence threshold.
        """
        stable = self.alphas[~self.unstable]
        unstable = self.alphas[self.unstable]
        return (float(stable.max()) if stable.size else None,
                float(unstable.min()) if unstable.size else None)

    def as_dict(self):
        return {
            "alphas": [float(a) for a in self.alphas],
            "estimates": [e.as_dict() for e in self.estimates],
            "unstable": [bool(f) for f in self.unstable],
            "bracket": list(self.bracket),
        }


@dataclass
class EstimatorConfig:
    """Everything a sampler needs: target law, grid, budget mechanics.

    The law is checked on construction: the dimension must be transient
    (d >= 3), and ``t`` and ``free_horizon`` positive and finite when
    given; the path kernels reject non-finite endpoints.
    ``free_horizon`` defaults to 100 R^2 (support radius R), the scale at
    which exterior occupation is negligible by transience; the adequacy of
    the truncation is checked by the doubling test in the suite.  Paths
    are drawn in batches of ``batch_size``, one stream per batch.
    """

    batch_size: ClassVar[int] = BATCH_SIZE

    potential: Potential
    x: np.ndarray = None
    y: np.ndarray = None
    t: float = None
    free_horizon: float | None = None
    h_fine: float = 0.01
    seed: int = 0
    stream_channel: int = 0
    workers: int = 1
    tail_correction: bool = True

    def __post_init__(self):
        if self.dim < 3:
            raise ValueError("sampled laws require transient dimension d >= 3")
        if self.x is not None:
            self.x = np.asarray(self.x, dtype=float)
        if self.y is not None:
            self.y = np.asarray(self.y, dtype=float)
        for name in ("t", "free_horizon"):
            value = getattr(self, name)
            if value is not None:
                value = float(value)
                if not (math.isfinite(value) and value > 0):
                    raise ValueError(f"{name} must be positive and finite")
                setattr(self, name, value)

    @property
    def dim(self) -> int:
        return self.potential.dim

    def resolved_free_horizon(self) -> float:
        if self.free_horizon is not None:
            return float(self.free_horizon)
        r = self.potential.support_radius
        return max(100.0 * r * r, 1.0)

    def grid_for(self, horizon: float, kind: str = "bridge") -> TimeGrid:
        return TimeGrid.refined(horizon, self.h_fine, both_ends=kind == "bridge")


def _stream_id(channel: int, leg: int, batch: int) -> int:
    return batch + (leg << 32) + (channel << 40)


def _run_batch(kind: str, cfg: EstimatorConfig, batch: int, count: int):
    """One batch of path integrals; returns (values, tail_potential or None).

    Tails are computed only when ``cfg.tail_correction`` will use them.
    """
    v = cfg.potential
    if kind == "bridge":
        if cfg.x is None or cfg.y is None or cfg.t is None:
            raise ValueError("bridge sampling needs x, y and t in the config")
        rng = stream(cfg.seed, _stream_id(cfg.stream_channel, 0, batch))
        vals, _ = bridge_integral_batch(cfg.x, cfg.y, cfg.grid_for(cfg.t), v, rng, count)
        return vals, None
    grid = cfg.grid_for(cfg.resolved_free_horizon(), kind="free")
    starts = [cfg.x]
    if kind == "two_sided":
        if cfg.y is None:
            raise ValueError("two-sided sampling needs both endpoints")
        starts.append(cfg.y)
    vals, tails = 0.0, 0.0
    for leg, start in enumerate(starts):
        rng = stream(cfg.seed, _stream_id(cfg.stream_channel, leg, batch))
        leg_vals, term = free_integral_batch(start, grid, v, rng, count)
        vals = vals + leg_vals
        if cfg.tail_correction:
            tails = tails + _green_potential_vec(v, term)
    return vals, (tails if cfg.tail_correction else None)


def _green_potential_vec(v: Potential, points: np.ndarray) -> np.ndarray:
    """Green potential of v at many points (the exact mean of the lost tail)."""
    if v.is_radial:
        b = np.linalg.norm(points - v.center, axis=1)
        return np.asarray(green_potential_radial(v, b))
    return np.array([green_potential(v, p) for p in points])


def _batch_plan(n: int, batch_size: int):
    batches = []
    done = 0
    idx = 0
    while done < n:
        count = min(batch_size, n - done)
        batches.append((idx, count))
        done += count
        idx += 1
    return batches


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _collect(kind: str, n: int, cfg: EstimatorConfig):
    """Raw path-integral samples plus terminal tail potentials, in batch order.

    Returns (values, tails); ``tails`` is None for the bridge kind, where
    the horizon is exact and no truncation correction exists, and when
    ``cfg.tail_correction`` is off.  Every estimator and harness samples
    through this call, so one sampling pass can feed several statistics.
    The pool has min(workers, batches, usable CPUs) processes: a fork pool
    starts all of them at its first task, and the samples do not depend on
    their number.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown sample kind {kind!r}; expected one of {_KINDS}")
    plan = _batch_plan(n, cfg.batch_size)
    pool_size = min(cfg.workers, len(plan), _usable_cpus())
    if pool_size > 1:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            columns = [[kind] * len(plan), [cfg] * len(plan), *zip(*plan)]
            parts = list(pool.map(_run_batch, *columns))
    else:
        parts = [_run_batch(kind, cfg, b, c) for b, c in plan]
    values = np.concatenate([p[0] for p in parts])
    tails = None
    if parts[0][1] is not None:
        tails = np.concatenate([p[1] for p in parts])
    return values, tails


def tail_corrected(values: np.ndarray, tails, k: int = 1):
    """The sample with its closed-form expected tail added where that applies.

    The correction is the exact mean of the truncated part, so it is added
    only for first-order statistics (k = 1: the mean, and the mgf, which
    takes it inside the exponent) and only where tails were drawn (None
    for bridges and with ``tail_correction`` off).

    Inside the exponent it biases the mgf low for every alpha != 0: exp is
    convex, so E[exp(alpha Y_rest) | W_T] >= exp(alpha E[Y_rest | W_T]).
    The bias is second order in alpha Y_rest.  For the unit ball at horizon
    1600 and alpha = -0.5 it is about -0.19% per leg (exp(-E Y_rest / 2)
    is about 1 - 0.0067 where E exp(-Y_rest / 2) is about 1 - 0.0048), and
    -0.37% on a two-sided product: 0.4184 against the exact 0.41997.  The
    sweeps' mgf references take this sample only for non-radial
    potentials; radial ones are exact (``green.mgf_one_sided``).
    """
    if k == 1 and tails is not None:
        return values + tails
    return values


def _mgf_estimate(values: np.ndarray, alpha: float, exact_mean=None) -> McEstimate:
    """E exp(alpha Z) from a sample of Z; alpha = 0 is returned exactly.

    ``exact_mean`` = (m1, m1_error) is the exact E Z of the sampled law and
    its declared absolute error.  With it, Z is a linear control for
    f = exp(alpha Z) (see the module docstring); ``max_sample_share`` stays
    that of the raw f.  The plain mean is returned, bit for bit, when
    alpha = 0, when any f is non-finite, when Z is constant or when there
    are fewer than 3 samples.
    """
    if alpha == 0.0:
        return McEstimate(1.0, 0.0, values.size, 1.0 / values.size)
    f = np.exp(alpha * values)
    plain = McEstimate.from_samples(f)
    if (exact_mean is None or values.size < 3 or not np.all(np.isfinite(f))
            or np.ptp(values) == 0.0):
        return plain
    m1, m1_error = exact_mean
    z_mean = float(np.mean(values))
    dz = values - z_mean
    df = f - plain.mean
    beta = float(np.dot(df, dz) / np.dot(dz, dz))
    gap = z_mean - m1
    residual = float(np.std(df - beta * dz, ddof=2)) / math.sqrt(values.size)
    gap_error = float(np.std(values, ddof=1)) / math.sqrt(values.size)
    control = LinearControl(m1=m1, m1_error=m1_error, beta=beta, gap=gap,
                            gap_error=gap_error)
    return replace(plain, mean=plain.mean - beta * gap,
                   std_error=math.hypot(residual, beta * m1_error), control=control)


def mc_moment(kind: str, k: int, n: int, cfg: EstimatorConfig) -> McEstimate:
    """Empirical k-th moment of the requested path integral.

    For free and two-sided first moments the truncated sample is augmented
    by the closed-form expected tail beyond the horizon (exactly unbiased);
    higher moments use the plain truncated integral.
    """
    if k < 1:
        raise ValueError("moment order must be at least 1")
    if n < 2:
        raise ValueError("at least 2 samples are required")
    values, tails = _collect(kind, n, cfg)
    return McEstimate.from_samples(tail_corrected(values, tails, k)**k)


def _mgf_warnings(alphas: np.ndarray, v: Potential):
    """Warn when |alpha| reaches alpha0 = 1/K1 for a sign-changing potential.

    alpha0 is the mgf radius that Khas'minskii's lemma guarantees; beyond
    it a sign-changing potential's mgf may diverge unnoticed.
    """
    if v.is_nonnegative:
        return
    alpha0 = k1_bound(v).alpha0
    if alpha0 is not None and np.any(np.abs(alphas) >= alpha0):
        warnings.warn(
            f"alpha grid reaches the guaranteed mgf radius alpha0 = {alpha0:.6g} "
            "for a sign-changing potential; estimates beyond it may not converge",
            RuntimeWarning, stacklevel=3)


def _bridge_mean(cfg: EstimatorConfig) -> tuple:
    """(E Z(t), its declared absolute error) for the bridge cfg describes."""
    m1 = moment_bridge(cfg.x, cfg.y, cfg.t, cfg.potential, 1)
    return m1, DEFAULT.tolerance(1, cfg.potential) * abs(m1)


def mc_mgf(kind: str, alphas, n: int, cfg: EstimatorConfig) -> MgfCurve:
    """Empirical mgf curve alpha -> E exp(alpha Z) with stability flags.

    alpha = 0 is returned exactly.  An estimate is flagged unstable when a
    single sample carries more than half of the total mass.  On a bridge
    the exact mean E Z(t) is a linear control for every alpha.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    if n < 2:
        raise ValueError("at least 2 samples are required")
    _mgf_warnings(alphas, cfg.potential)
    values = tail_corrected(*_collect(kind, n, cfg))
    exact_mean = _bridge_mean(cfg) if kind == "bridge" else None
    estimates = [_mgf_estimate(values, a, exact_mean) for a in alphas]
    unstable = np.array([e.max_sample_share > 0.5 for e in estimates], dtype=bool)
    return MgfCurve(alphas, estimates, unstable)


def alpha1_divergence_probe(v: Potential, alphas, budget: int, *,
                            x=None, horizon=None, seed: int = 0,
                            workers: int = 1) -> MgfCurve:
    """Scan the one-sided mgf over an increasing alpha grid for heavy-tail instability.

    Requires v >= 0.  The free mgf curve from x (default: the support
    centre) is flagged as in ``mc_mgf``; its ``bracket`` locates the
    empirical blow-up.
    """
    if not v.is_nonnegative:
        raise ValueError("the divergence probe requires a nonnegative potential")
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size and np.any(np.diff(alphas) <= 0):
        raise ValueError("alpha grid must be strictly increasing")
    cfg = EstimatorConfig(potential=v, x=v.center if x is None else x,
                          free_horizon=horizon, seed=seed, workers=workers)
    return mc_mgf("free", alphas, budget, cfg)


def bloch_green(x, y, t: float, n: int, cfg: EstimatorConfig) -> McEstimate:
    """Fundamental solution value q(t; y - x) E exp(-Z(t)) for the bridge.

    E exp(-Z(t)) takes the exact bridge mean E Z(t) as a linear control, as
    in ``mc_mgf``; the control is reported in the units of the returned
    value.  Reduces to the free heat kernel when v vanishes.
    """
    cfg = replace(cfg, x=x, y=y, t=t)
    kernel = transition_density(t, cfg.y - cfg.x)
    values, _ = _collect("bridge", n, cfg)
    est = _mgf_estimate(values, -1.0, _bridge_mean(cfg))
    control = replace(est.control, beta=kernel * est.control.beta) if est.control else None
    return replace(est, mean=kernel * est.mean, std_error=kernel * est.std_error,
                   control=control)
