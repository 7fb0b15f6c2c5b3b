"""Exact finite-dimensional laws of Brownian motion and the Brownian bridge.

All densities are evaluated in log space and exponentiated only at the
interface, so configurations with |y - x|^2 comparable to the horizon do
not underflow.  Densities are defined for any dimension d >= 1; the
transience requirement d >= 3 is enforced by the experiment harnesses,
not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TimePoints",
    "log_transition_density",
    "transition_density",
    "bridge_marginal",
    "density_ratio",
    "jensen_lower_bound",
]


def _as_point(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.ndim != 1:
        raise ValueError("a point must be a one-dimensional coordinate array")
    if not np.all(np.isfinite(x)):
        raise ValueError("point coordinates must be finite")
    return x


def _as_points(z, k: int) -> np.ndarray:
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if z.ndim != 2:
        raise ValueError("space points must form a (k, d) array")
    if z.shape[0] != k:
        raise ValueError(f"expected {k} space points, got {z.shape[0]}")
    return z


@dataclass(frozen=True)
class TimePoints:
    """Strictly increasing interior times 0 < s_1 < ... < s_k < t.

    The horizon t may be ``math.inf`` for unconstrained motion.  k = 0
    (no interior times) is allowed; it is the degenerate configuration in
    which only the endpoints of the path remain.
    """

    s: tuple = field(default=())
    t: float = math.inf

    def __post_init__(self):
        s = tuple(float(v) for v in self.s)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", float(self.t))
        if not (self.t > 0):
            raise ValueError(f"horizon must be positive, got t={self.t}")
        arr = np.asarray(s)
        if arr.size:
            if arr[0] <= 0.0 or arr[-1] >= self.t:
                raise ValueError("interior times must lie strictly inside (0, t)")
            if np.any(np.diff(arr) <= 0.0):
                raise ValueError("interior times must be strictly increasing")

    @property
    def k(self) -> int:
        return len(self.s)

    def gaps(self) -> np.ndarray:
        """Consecutive gaps of the extended sequence 0, s_1, ..., s_k, t."""
        if not math.isfinite(self.t):
            raise ValueError("gaps require a finite horizon")
        ext = np.concatenate(([0.0], self.s, [self.t]))
        return np.diff(ext)


def log_transition_density(t: float, x) -> float:
    """log of the Brownian transition density (2 pi t)^(-d/2) exp(-|x|^2 / 2t)."""
    if not (t > 0):
        raise ValueError(f"time must be positive, got t={t}")
    x = _as_point(x)
    d = x.size
    return -0.5 * d * math.log(2.0 * math.pi * t) - float(x @ x) / (2.0 * t)


def transition_density(t: float, x) -> float:
    """Brownian transition density q(t; x) in the dimension of ``x``."""
    return math.exp(log_transition_density(t, x))


def _chain(x, times: TimePoints, points, terminal):
    """Extended sequences (s_j, z_j) with s_0 = 0, z_0 = x, s_(k+1) = t and z_(k+1) = terminal."""
    x = _as_point(x)
    pts = _as_points(points, times.k) if times.k else np.empty((0, x.size))
    if pts.shape[0] and pts.shape[1] != x.size:
        raise ValueError("space points and start point disagree in dimension")
    s = [0.0, *times.s, times.t]
    z = [x, *pts, _as_point(terminal)]
    return np.asarray(s), np.vstack(z)


def bridge_marginal(x, y, t: float, s: float):
    """Mean and per-coordinate variance of the bridge position at time s.

    Returns (x + (s/t)(y - x), s (t - s) / t).  The variance is the same in
    every coordinate; coordinates are independent.
    """
    if not (0.0 < s < t):
        raise ValueError(f"marginal time must satisfy 0 < s < t, got s={s}, t={t}")
    x = _as_point(x)
    y = _as_point(y)
    mean = x + (s / t) * (y - x)
    var = s * (t - s) / t
    return mean, var


def density_ratio(x, y, times: TimePoints, points, j: int) -> float:
    """Ratio q(t; y - x) / q(ds_j; dz_j) along the extended bridge chain.

    Conventions: s_0 = 0, s_{k+1} = t, z_0 = x, z_{k+1} = y, so j ranges
    over 0..k.  With k = 0 the ratio is identically 1.  Equals
    (ds_j / t)^(d/2) exp(|dz_j|^2 / (2 ds_j) - |y - x|^2 / (2 t)).
    """
    if not math.isfinite(times.t):
        raise ValueError("the density ratio requires a finite horizon")
    if not 0 <= j <= times.k:
        raise ValueError(f"segment index must satisfy 0 <= j <= k={times.k}")
    x = _as_point(x)
    y = _as_point(y)
    s, z = _chain(x, times, points, y)
    ds = s[j + 1] - s[j]
    if ds <= 0.0:
        raise ValueError("nonpositive time gap in the extended chain")
    num = log_transition_density(times.t, y - x)
    den = log_transition_density(ds, z[j + 1] - z[j])
    return math.exp(num - den)


def jensen_lower_bound(times: TimePoints, d: int):
    """Sum of (gap / t)^(d/2) over the k + 1 gaps, with its convexity bound.

    Returns (sum, (k + 1)^(1 - d/2)).  Since w -> w^(d/2) is convex for
    d >= 2, the sum is minimised by equal spacing, which attains the bound.
    """
    if d < 2:
        raise ValueError("the convexity bound requires dimension d >= 2")
    gaps = times.gaps()
    k = times.k
    total = float(np.sum((gaps / times.t) ** (d / 2.0)))
    bound = float((k + 1) ** (1.0 - d / 2.0))
    return total, bound
