"""Monte Carlo estimators for moments, mgfs and the Bloch kernel value.

Samples are drawn in fixed-size batches, each batch on its own
counter-based stream, so estimates are bitwise reproducible for a given
(master seed, batch size) regardless of worker count.  Reduction happens
on the concatenated sample array in batch order.

On a bridge, E exp(alpha Z) uses the exact moments m1 = E Z(t) and
m2 = E Z(t)^2 from ``quadrature.moment_bridge`` as a quadratic control
(Lavenberg & Welch 1981; Glasserman 2003, section 4.1): with f =
exp(alpha Z), the estimate is mean(f) - beta . (mean(Z, Z^2) - (m1, m2)),
where beta holds the least-squares slopes of f on (Z, Z^2), fitted on the
whole sample in batch order.  Its standard error is the residual one
(ddof 3), combined in quadrature with |beta_k| times each oracle's
declared error.  Where the k = 2 oracle refuses the geometry (Kac's
resolvent for a radial v, the pair rule for a tabulated one), Z alone is a
linear control, with the residual on ddof 2.  The plain mean is kept for
alpha = 0, an overflowed f, a constant Z and fewer than 4 paths.  Free and
two-sided samples, and the sweeps' mgf rows, pass no control and keep the
plain mean: the sweeps judge a finite-t estimate against its t = infinity
limit, and a smaller standard error would turn the finite-t gap into a
verdict.

Free and two-sided samples are the raw integrals to a finite horizon T,
so they estimate the law at T, whose moments ``quadrature.moment_free``
and ``moment_two_sided`` give exactly; the part beyond T is not sampled.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
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
# unused here: the benchmark's tracer hooks both Green potentials at these names (ROADMAP item 0)
from .green import green_potential, green_potential_radial, k1_bound
from .potentials import Potential
from .quadrature import DEFAULT, moment_bridge

__all__ = [
    "McEstimate",
    "MomentControl",
    "MgfCurve",
    "EstimatorConfig",
    "mc_moment",
    "mc_mgf",
    "bloch_green",
]

_KINDS = ("bridge", "free", "two_sided")


@dataclass(frozen=True)
class MomentControl:
    """How an estimate used the exact moments of Z as controls.

    ``gap`` is mean(Z) - m1 on the sample, with standard error
    ``gap_error``, and ``gap2`` is mean(Z^2) - m2.  The slopes ``beta`` (on
    Z) and ``beta2`` (on Z^2) are in the units of the estimate, so
    beta * gap + beta2 * gap2 is what the control subtracted from the plain
    mean, and with it the bias that a discretization error in Z transfers.
    ``m1_error`` and ``m2_error`` are the oracles' declared absolute errors.
    A linear control, where the k = 2 oracle refused the geometry, has
    None for m2, m2_error, beta2 and gap2.
    """

    m1: float
    m1_error: float
    beta: float
    gap: float
    gap_error: float
    m2: float | None = None
    m2_error: float | None = None
    beta2: float | None = None
    gap2: float | None = None

    def as_dict(self):
        return {"m1": self.m1, "m1_error": self.m1_error, "beta": self.beta,
                "gap": self.gap, "gap_error": self.gap_error, "m2": self.m2,
                "m2_error": self.m2_error, "beta2": self.beta2, "gap2": self.gap2}


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
    control: MomentControl | None = None

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


@dataclass
class EstimatorConfig:
    """Everything a sampler needs: target law, grid, budget mechanics.

    The law is checked on construction: the dimension must be transient
    (d >= 3), and ``t`` and ``free_horizon`` positive and finite when
    given; the path kernels reject non-finite endpoints.
    ``free_horizon`` is the horizon T of free and two-sided legs, 100 R^2
    (support radius R) by default; their samples are the integrals to T.
    Paths are drawn in batches of ``batch_size``, one stream per batch.
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


def _run_batch(kind: str, cfg: EstimatorConfig, batch: int, count: int, *,
               draw_ahead: bool = False) -> np.ndarray:
    """One batch of path integrals; a two-sided value is the sum of its two legs.

    ``draw_ahead`` is handed to the batch calls: their cohorts draw normals
    on a helper thread, with the same values.
    """
    v = cfg.potential
    if kind == "bridge":
        if cfg.x is None or cfg.y is None or cfg.t is None:
            raise ValueError("bridge sampling needs x, y and t in the config")
        rng = stream(cfg.seed, _stream_id(cfg.stream_channel, 0, batch))
        vals, _ = bridge_integral_batch(cfg.x, cfg.y, cfg.grid_for(cfg.t), v, rng, count,
                                        draw_ahead=draw_ahead)
        return vals
    grid = cfg.grid_for(cfg.resolved_free_horizon(), kind="free")
    starts = [cfg.x]
    if kind == "two_sided":
        if cfg.y is None:
            raise ValueError("two-sided sampling needs both endpoints")
        starts.append(cfg.y)
    vals = 0.0
    for leg, start in enumerate(starts):
        rng = stream(cfg.seed, _stream_id(cfg.stream_channel, leg, batch))
        vals = vals + free_integral_batch(start, grid, v, rng, count, draw_ahead=draw_ahead)[0]
    return vals


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


def _collect(kind: str, n: int, cfg: EstimatorConfig, meanwhile=None) -> np.ndarray:
    """Raw path-integral samples, in batch order.

    Every estimator and harness samples through this call, so one sampling
    pass can feed several statistics.
    The pool has min(workers, batches, usable CPUs) processes: a fork pool
    starts all of them at its first task, and the samples do not depend on
    their number.  Each batch draws its cohort's normals ahead on a helper
    thread when 2 x pool size <= usable CPUs, so that every helper has a
    CPU of its own; the samples do not depend on that either.
    ``meanwhile``, if given, is called in this process once every batch is
    handed to the pool, so work that does not need the samples runs while
    they are drawn.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown sample kind {kind!r}; expected one of {_KINDS}")
    plan = _batch_plan(n, cfg.batch_size)
    cpus = _usable_cpus()
    pool_size = min(cfg.workers, len(plan), cpus)
    run_batch = partial(_run_batch, draw_ahead=2 * pool_size <= cpus)
    if pool_size > 1:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            columns = [[kind] * len(plan), [cfg] * len(plan), *zip(*plan)]
            pending = pool.map(run_batch, *columns)  # submits every batch
            if meanwhile is not None:
                meanwhile()
            parts = list(pending)
    else:
        parts = [run_batch(kind, cfg, b, c) for b, c in plan]
        if meanwhile is not None:
            meanwhile()
    return np.concatenate(parts)


def _mgf_estimate(values: np.ndarray, alpha: float, exact=None) -> McEstimate:
    """E exp(alpha Z) from a sample of Z; alpha = 0 is returned exactly.

    ``exact`` = (m1, m1_error, m2, m2_error) holds the exact E Z and E Z^2
    of the sampled law and their declared absolute errors; m2 and m2_error
    are None where no exact E Z^2 exists.  With it, (Z, Z^2), or Z alone,
    is a control for f = exp(alpha Z) (see the module docstring);
    ``max_sample_share`` stays that of the raw f.  The plain mean is
    returned, bit for bit, when alpha = 0, when any f is non-finite, when Z
    is constant or when there are fewer than 4 samples.
    """
    if alpha == 0.0:
        return McEstimate(1.0, 0.0, values.size, 1.0 / values.size)
    f = np.exp(alpha * values)
    plain = McEstimate.from_samples(f)
    if (exact is None or values.size < 4 or not np.all(np.isfinite(f))
            or np.ptp(values) == 0.0):
        return plain
    m1, m1_error, m2, m2_error = exact
    n = values.size
    z_mean = float(np.mean(values))
    dz = values - z_mean
    df = f - plain.mean
    gap = z_mean - m1
    gap_error = float(np.std(values, ddof=1)) / math.sqrt(n)
    if m2 is not None:
        squares = values * values
        q_mean = float(np.mean(squares))
        design = np.column_stack([dz, squares - q_mean])
        slopes, _, rank, _ = np.linalg.lstsq(design, df, rcond=None)
        if rank == 2:
            beta, beta2 = float(slopes[0]), float(slopes[1])
            gap2 = q_mean - m2
            residual = float(np.std(df - design @ slopes, ddof=3)) / math.sqrt(n)
            control = MomentControl(m1=m1, m1_error=m1_error, beta=beta, gap=gap,
                                    gap_error=gap_error, m2=m2, m2_error=m2_error,
                                    beta2=beta2, gap2=gap2)
            return replace(plain, mean=plain.mean - beta * gap - beta2 * gap2,
                           std_error=math.hypot(residual, beta * m1_error, beta2 * m2_error),
                           control=control)
    beta = float(np.dot(df, dz) / np.dot(dz, dz))
    residual = float(np.std(df - beta * dz, ddof=2)) / math.sqrt(n)
    control = MomentControl(m1=m1, m1_error=m1_error, beta=beta, gap=gap,
                            gap_error=gap_error)
    return replace(plain, mean=plain.mean - beta * gap,
                   std_error=math.hypot(residual, beta * m1_error), control=control)


def mc_moment(kind: str, k: int, n: int, cfg: EstimatorConfig) -> McEstimate:
    """Empirical k-th moment of the requested path integral.

    A free or two-sided sample is the integral to ``cfg``'s free horizon T,
    so the estimate is of the k-th moment at T.
    """
    if k < 1:
        raise ValueError("moment order must be at least 1")
    if n < 2:
        raise ValueError("at least 2 samples are required")
    return McEstimate.from_samples(_collect(kind, n, cfg)**k)


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


def _bridge_moments(cfg: EstimatorConfig):
    """(m1, m1_error, m2, m2_error) of the bridge cfg describes, or None.

    The errors are the oracles' declared absolute errors.  m2 and m2_error
    are None where the k = 2 oracle refuses the geometry, and the whole is
    None where the k = 1 rule does (endpoints too far apart for the horizon).
    """
    v = cfg.potential
    try:
        m1 = moment_bridge(cfg.x, cfg.y, cfg.t, v, 1)
    except ValueError:
        return None
    m1_error = DEFAULT.tolerance(1, v) * abs(m1)
    try:
        m2 = moment_bridge(cfg.x, cfg.y, cfg.t, v, 2)
    except ValueError:
        return m1, m1_error, None, None
    return m1, m1_error, m2, DEFAULT.tolerance(2, v, bridge=True) * abs(m2)


def _bridge_sample(n: int, cfg: EstimatorConfig) -> tuple:
    """(Z sample, ``_bridge_moments``) for the bridge cfg describes.

    The exact moments are computed while the pool draws the sample.
    """
    exact = []
    values = _collect("bridge", n, cfg, meanwhile=lambda: exact.append(_bridge_moments(cfg)))
    return values, exact[0]


def mc_mgf(kind: str, alphas, n: int, cfg: EstimatorConfig) -> MgfCurve:
    """Empirical mgf curve alpha -> E exp(alpha Z) with stability flags.

    alpha = 0 is returned exactly.  An estimate is flagged unstable when a
    single sample carries more than half of the total mass.  On a bridge
    the exact E Z(t) and E Z(t)^2 are a quadratic control for every alpha.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    if n < 2:
        raise ValueError("at least 2 samples are required")
    _mgf_warnings(alphas, cfg.potential)
    if kind == "bridge":
        values, exact = _bridge_sample(n, cfg)
    else:
        values, exact = _collect(kind, n, cfg), None
    estimates = [_mgf_estimate(values, a, exact) for a in alphas]
    unstable = np.array([e.max_sample_share > 0.5 for e in estimates], dtype=bool)
    return MgfCurve(alphas, estimates, unstable)


def bloch_green(x, y, t: float, n: int, cfg: EstimatorConfig) -> McEstimate:
    """Fundamental solution value q(t; y - x) E exp(-Z(t)) for the bridge.

    E exp(-Z(t)) takes the exact bridge moments E Z(t) and E Z(t)^2 as a
    quadratic control, as in ``mc_mgf``; the control's slopes are reported
    in the units of the returned value.  Reduces to the free heat kernel
    when v vanishes.
    """
    cfg = replace(cfg, x=x, y=y, t=t)
    kernel = transition_density(t, cfg.y - cfg.x)
    values, exact = _bridge_sample(n, cfg)
    est = _mgf_estimate(values, -1.0, exact)
    control = est.control
    if control is not None:
        control = replace(control, beta=kernel * control.beta,
                          beta2=None if control.beta2 is None else kernel * control.beta2)
    return replace(est, mean=kernel * est.mean, std_error=kernel * est.std_error,
                   control=control)
