"""Monte Carlo estimators for moments, mgfs and survival probabilities.

Samples are drawn in fixed-size batches, each batch on its own
counter-based stream, so estimates are bitwise reproducible for a given
(master seed, batch size) regardless of worker count.  Reduction happens
on the concatenated sample array in batch order.

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
from .potentials import (
    Potential,
    green_potential,
    green_potential_radial,
    k1_bound,
)

__all__ = [
    "McEstimate",
    "MgfCurve",
    "ReactionEstimate",
    "EstimatorConfig",
    "tail_corrected",
    "mc_moment",
    "mc_mgf",
    "reaction_probability",
    "bloch_green",
]

_KINDS = ("bridge", "free", "two_sided")


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


@dataclass(frozen=True)
class ReactionEstimate:
    """Survival probability E exp(-Z) and its complement."""

    survival: McEstimate
    reaction: McEstimate


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
    h_coarse: float | None = None
    refine_window: float | None = None
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
        builder = TimeGrid.endpoint_refined if kind == "bridge" else TimeGrid.front_refined
        return builder(horizon, u=self.refine_window,
                       h_fine=self.h_fine, h_coarse=self.h_coarse)


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


def _collect(kind: str, n: int, cfg: EstimatorConfig):
    """Raw path-integral samples plus terminal tail potentials, in batch order.

    Returns (values, tails); ``tails`` is None for the bridge kind, where
    the horizon is exact and no truncation correction exists, and when
    ``cfg.tail_correction`` is off.  Every estimator and harness samples
    through this call, so one sampling pass can feed several statistics.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown sample kind {kind!r}; expected one of {_KINDS}")
    plan = _batch_plan(n, cfg.batch_size)
    if cfg.workers > 1 and len(plan) > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
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
    """
    if k == 1 and tails is not None:
        return values + tails
    return values


def _mgf_estimate(values: np.ndarray, alpha: float) -> McEstimate:
    """E exp(alpha Z) from a sample of Z; alpha = 0 is returned exactly."""
    if alpha == 0.0:
        return McEstimate(1.0, 0.0, values.size, 1.0 / values.size)
    return McEstimate.from_samples(np.exp(alpha * values))


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


def mc_mgf(kind: str, alphas, n: int, cfg: EstimatorConfig) -> MgfCurve:
    """Empirical mgf curve alpha -> E exp(alpha Z) with stability flags.

    alpha = 0 is returned exactly.  An estimate is flagged unstable when a
    single sample carries more than half of the total mass.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    if n < 2:
        raise ValueError("at least 2 samples are required")
    _mgf_warnings(alphas, cfg.potential)
    values = tail_corrected(*_collect(kind, n, cfg))
    estimates = [_mgf_estimate(values, a) for a in alphas]
    unstable = np.array([e.max_sample_share > 0.5 for e in estimates], dtype=bool)
    return MgfCurve(alphas, estimates, unstable)


def reaction_probability(kind: str, n: int, cfg: EstimatorConfig) -> ReactionEstimate:
    """Survival probability E exp(-Z) and the complementary probability.

    Requires v >= 0 so that exp(-Z) is a probability pathwise.  Both
    readings of the underlying display are reported; survival is the
    mathematically consistent one for a killing rate v.
    """
    if not cfg.potential.is_nonnegative:
        raise ValueError("reaction probabilities need a nonnegative rate potential")
    if n < 2:
        raise ValueError("at least 2 samples are required")
    values = tail_corrected(*_collect(kind, n, cfg))
    surv = McEstimate.from_samples(np.exp(-values))
    react = McEstimate(mean=1.0 - surv.mean, std_error=surv.std_error,
                       n=surv.n, max_sample_share=surv.max_sample_share)
    return ReactionEstimate(survival=surv, reaction=react)


def bloch_green(x, y, t: float, n: int, cfg: EstimatorConfig) -> McEstimate:
    """Fundamental solution value q(t; y - x) E exp(-Z(t)) for the bridge.

    Reduces to the free heat kernel when v vanishes; for v >= 0 the value
    is dominated by the kernel pathwise.
    """
    cfg = replace(cfg, x=x, y=y, t=t)
    kernel = transition_density(t, cfg.y - cfg.x)
    values, _ = _collect("bridge", n, cfg)
    est = McEstimate.from_samples(np.exp(-values))
    return McEstimate(mean=kernel * est.mean, std_error=kernel * est.std_error,
                      n=est.n, max_sample_share=est.max_sample_share)
