"""Batched path integrals along Brownian bridges and free Brownian motion.

The whole path API is two batch engines: ``bridge_integral_batch`` and
``free_integral_batch`` step n paths together node by node on a
``TimeGrid`` and return the left-node integrals of a potential, plus the
positions a caller asks for (``record_idx`` for bridges, the terminal
points for free paths).  A single draw is a batch of one.

Bridge paths are drawn by sequential conditional sampling: given the
current position at s_j, the next position is Gaussian with mean pulled
toward the pinned endpoint and per-coordinate variance
ds (t - s_{j+1}) / (t - s_j).  This is exact in law on any grid, uniform
or not, and pins the terminal point exactly.

Randomness comes from counter-based Philox streams keyed by
(master seed, stream id), so results are reproducible regardless of how
work is split across workers.  Estimators consume paths in fixed-size
batches; the stream id is the batch index, which keeps every batch
bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import Potential

__all__ = [
    "BATCH_SIZE",
    "TimeGrid",
    "stream",
    "bridge_integral_batch",
    "free_integral_batch",
]

BATCH_SIZE = 8192

_MASK64 = (1 << 64) - 1


def stream(seed: int, stream_id: int) -> np.random.Generator:
    """Independent counter-based generator for (seed, stream_id)."""
    key = np.array([seed & _MASK64, stream_id & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nodes from 0 to the horizon."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("a time grid needs at least the two endpoint nodes")
        if nodes[0] != 0.0:
            raise ValueError("the first grid node must be 0")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("grid nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.nodes)

    @classmethod
    def uniform(cls, t: float, h: float) -> "TimeGrid":
        """Uniform grid on [0, t] with step at most h."""
        if t <= 0 or h <= 0:
            raise ValueError("horizon and step must be positive")
        n = max(1, math.ceil(t / h))
        return cls(np.linspace(0.0, t, n + 1))

    @classmethod
    def front_refined(cls, t: float, u: float | None = None,
                      h_fine: float = 0.01, h_coarse: float | None = None) -> "TimeGrid":
        """Fine steps within u of the start only; for unconstrained paths.

        A free path leaves the support once and for all (transience), so
        only the early segment needs resolution; the far end carries no
        pinning and no occupation worth refining.
        """
        return cls._refined(t, u, h_fine, h_coarse, both_ends=False)

    @classmethod
    def endpoint_refined(cls, t: float, u: float | None = None,
                         h_fine: float = 0.01, h_coarse: float | None = None) -> "TimeGrid":
        """Fine steps within u of both endpoints, coarse steps in the bulk.

        Defaults follow the proof-motivated split: u = sqrt(t) and
        h_coarse = min(1, t/100).  Coarse bulk steps are sound for
        compactly supported potentials because far-from-support stretches
        contribute nothing; occupation missed between coarse nodes is a
        known, refinement-controlled bias.
        """
        return cls._refined(t, u, h_fine, h_coarse, both_ends=True)

    @classmethod
    def _refined(cls, t, u, h_fine, h_coarse, both_ends: bool) -> "TimeGrid":
        """Fine window [0, u] (and [t - u, t] when ``both_ends``), coarse bulk."""
        if t <= 0:
            raise ValueError("horizon must be positive")
        u = math.sqrt(t) if u is None else float(u)
        h_coarse = min(1.0, t / 100.0) if h_coarse is None else float(h_coarse)
        if h_fine <= 0 or h_coarse <= 0 or u <= 0:
            raise ValueError("grid parameters must be positive")
        fine_span = 2.0 * u if both_ends else u
        if fine_span >= t:
            n = max(1, math.ceil(t / h_fine))
            return cls(np.linspace(0.0, t, n + 1))
        nf = max(1, math.ceil(u / h_fine))
        nc = max(1, math.ceil((t - fine_span) / h_coarse))
        parts = [np.linspace(0.0, u, nf + 1),
                 np.linspace(u, t - u if both_ends else t, nc + 1)[1:]]
        if both_ends:
            parts.append(np.linspace(t - u, t, nf + 1)[1:])
        return cls(np.concatenate(parts))


def _finite_point(p) -> np.ndarray:
    """A path endpoint as a float vector; NaN or infinite coordinates are rejected."""
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError("path endpoints must be finite")
    return p


def bridge_integral_batch(x, y, grid: TimeGrid, v: Potential,
                          rng: np.random.Generator, n: int,
                          record_idx=None):
    """Integrals of v along n bridge paths from x to y over [0, grid.horizon].

    Returns (values, recorded) where recorded stacks positions at the
    requested node indices with shape (len(record_idx), n, d).  Memory
    stays O(n d) regardless of the grid size.
    """
    x, y = _finite_point(x), _finite_point(y)
    if x.shape != y.shape:
        raise ValueError("bridge endpoints must have the same dimension")
    t = grid.horizon
    nodes = grid.nodes
    record_idx = sorted(record_idx) if record_idx else []
    rec = {i: None for i in record_idx}
    z = np.broadcast_to(x, (n, x.size)).copy()
    if 0 in rec:
        rec[0] = z.copy()
    acc = np.zeros(n)
    for j in range(nodes.size - 1):
        s_j, s_next = nodes[j], nodes[j + 1]
        ds = s_next - s_j
        acc += v(z) * ds
        if s_next >= t:
            z = np.broadcast_to(y, (n, y.size)).copy()
        else:
            w = ds / (t - s_j)
            sd = math.sqrt(ds * (t - s_next) / (t - s_j))
            eps = rng.standard_normal((n, y.size))
            # z + w (y - z) + sd eps with the same roundings, in place and
            # column by column: broadcasting y over rows of length d is slow
            step = np.empty_like(z)
            for i, y_i in enumerate(y):
                np.subtract(y_i, z[:, i], out=step[:, i])
            step *= w
            step += z
            eps *= sd
            step += eps
            z = step
        if (j + 1) in rec:
            rec[j + 1] = z.copy()
    recorded = np.stack([rec[i] for i in record_idx]) if record_idx else None
    return acc, recorded


def free_integral_batch(x, grid: TimeGrid, v: Potential,
                        rng: np.random.Generator, n: int):
    """Integrals of v along n free paths; also returns terminal positions."""
    x = _finite_point(x)
    d = x.size
    z = np.broadcast_to(x, (n, d)).copy()
    acc = np.zeros(n)
    for ds in grid.steps:
        acc += v(z) * ds
        eps = rng.standard_normal((n, d))
        eps *= math.sqrt(ds)
        z += eps
    return acc, z
