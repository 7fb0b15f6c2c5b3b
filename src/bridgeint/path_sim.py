"""Batched path integrals along Brownian bridges and free Brownian motion.

The whole path API is two batch calls, ``bridge_integral_batch`` and
``free_integral_batch``, over one engine (``_integrate``).  They step n
paths on a ``TimeGrid`` and return the integrals of a potential (the
quadrature below), plus the positions a caller asks for (``record_idx``
for bridges, the terminal points for free paths), in path order.  A
single draw is a batch of one.

Every transition is exact in law: a free step adds a Gaussian of
variance ds per coordinate, and a bridge step from s to s' (sequential
conditional sampling) is Gaussian with mean pulled toward the pinned
endpoint and per-coordinate variance (s' - s)(t - s') / (t - s).  This
holds for any step, one grid node or many, and pins the terminal point
exactly.

Far-field node skipping.  v vanishes outside the support ball
(``v.center``, ``v.support_radius`` = R), and a path far from it has
nothing to integrate, so the engine runs in two phases.

- Phase 1, the cohort: all paths walk every node with one draw block per
  node and sum v by the trapezoid rule, node j weighing
  (s_{j+1} - s_{j-1}) / 2 and an end node half its step: a left-node sum
  is biased by about (h' - h) E v / 2 where the step grows from h to h',
  as at u = sqrt(t) (README).  Every ``_CHECK_EVERY`` = 8th node j with
  at least K nodes left, a path whose distance to the center exceeds
  R + kappa sqrt(s_{j+K} - s_j) (K = ``_LEAVE_NODES`` = 128, kappa =
  ``_KAPPA`` = 6) leaves the cohort with its state and v(z_j) (s_j -
  s_{j-1}) / 2.  Once fewer than ``_COHORT_SHARE`` = half of the batch
  remain, the rest leave too, because a small cohort pays the per-node
  cost of numpy calls for few paths.
- Phase 2, per-path clocks: the leavers step together, each from its own
  time s.  A path at distance D from the support ball jumps to the last
  grid node within the span sigma with kappa sqrt(sigma) + a sigma = D,
  where a bounds the drift speed of a bridge mean, (|z - center| +
  |y - center|) / (t - s), and is 0 for a free path.  It moves at least
  one node, stops at every recorded node and at the horizon, and adds
  v(z) (s' - s) at its left end (its steps near the support are short
  and change gradually).  A path that cannot reach the next node of a
  long interval (the coarse bulk) instead steps through it in equal parts
  no longer than max(sigma, the grid's finest step, (R / kappa)^2); the
  last moves a path about R / 6.
- The occupation a jump can miss needs the path's component toward the
  ball to travel kappa sqrt(sigma) in the span, a chance of 2 Phi(-kappa)
  ~ 2e-9 per jump; the bridge mean's drift is reserved out of D.

Steps per path on the default grids with h_fine 0.004 (unit ball,
x = y = 0): about 1,600 / 2,650 / 3,050 for bridges at t = 10 / 100 /
1000, and 2,100 for a free leg to 1600.

Randomness comes from counter-based Philox streams keyed by
(master seed, stream id), so results are reproducible regardless of how
work is split across workers.  Estimators consume paths in fixed-size
batches; the stream id is the batch index, which keeps every batch
bitwise reproducible.

Draw-ahead.  With ``draw_ahead``, the cohort (phase 1) takes its normals
from ``_Normals``, whose helper thread fills chunks of the same stream
while the cohort steps (numpy's fill releases the interpreter lock).  The
chunks arrive in stream order, so every path sees the values of inline
draws, bit for bit, and the generator is left where inline draws leave
it.  Phase 2 draws inline after the helper is joined: its steps cost
Python overhead per iteration, not draws.
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .potentials import Potential, _row_norms

__all__ = [
    "BATCH_SIZE",
    "DEFAULT_H_FINE",
    "TimeGrid",
    "stream",
    "bridge_integral_batch",
    "free_integral_batch",
]

BATCH_SIZE = 8192

# the default fine step of ``TimeGrid.refined``, the config key grid.h_fine
DEFAULT_H_FINE = 0.01

_MASK64 = (1 << 64) - 1

# far-field node skipping (module notes): the safety factor kappa, the
# look-ahead in nodes a path must be able to jump to leave the cohort, how
# often (in nodes) the cohort is checked, and the share of the batch below
# which the cohort hands its remaining paths to phase 2
_KAPPA = 6.0
_LEAVE_NODES = 128
_CHECK_EVERY = 8
_COHORT_SHARE = 0.5

# draw-ahead (module notes): normals per chunk and chunks queued ahead.  With
# the chunk being drawn, the look-ahead holds at most 384 KB of float64.  The
# helper's draw time, not its chunk size, bounds its speed; on 4,096 bridges
# to t = 10 (2-vCPU VM) peak memory rose 0.8 MB with these, 2.5 MB with 2^16
_CHUNK_DRAWS = 1 << 14
_QUEUED_CHUNKS = 2


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
    def refined(cls, t: float, h_fine: float = DEFAULT_H_FINE, both_ends: bool = True) -> "TimeGrid":
        """Fine steps near the start (and the end), a coarse bulk between.

        Steps are at most h_fine within u = sqrt(t) of 0 and, when
        ``both_ends`` (a bridge, pinned at t), of t; the bulk steps by at
        most min(1, t/100).  A free path leaves the support for good
        (transience), so only its start needs the window.
        """
        if t <= 0:
            raise ValueError("horizon must be positive")
        if not (math.isfinite(h_fine) and h_fine > 0):
            raise ValueError("h_fine must be positive and finite")
        u = math.sqrt(t)
        h_bulk = min(1.0, t / 100.0)
        fine_span = 2.0 * u if both_ends else u
        if fine_span >= t:
            n = max(1, math.ceil(t / h_fine))
            return cls(np.linspace(0.0, t, n + 1))
        nf = max(1, math.ceil(u / h_fine))
        nc = max(1, math.ceil((t - fine_span) / h_bulk))
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


class _Normals:
    """The standard normals of ``rng`` in stream order, drawn ahead on a helper thread.

    ``take(shape)`` returns what ``rng.standard_normal(shape)`` would, the
    helper filling chunks of ``chunk`` draws at most ``_QUEUED_CHUNKS``
    ahead.  ``close()`` joins the helper and leaves ``rng`` where inline
    draws of the same shapes would have left it; until then ``rng`` belongs
    to the helper.  A draw that raises in the helper is raised by ``take``.
    """

    def __init__(self, rng: np.random.Generator, chunk: int):
        self._rng = rng
        self._chunk = chunk
        # the chunk being served, its first unserved draw, and the
        # generator's state at its start, from which close() replays it
        self._block = np.empty(0)
        self._used = 0
        self._start = rng.bit_generator.state
        self._queue = queue.Queue(maxsize=_QUEUED_CHUNKS)
        self._stop = threading.Event()
        self._helper = threading.Thread(target=self._fill, name="path_sim-normals",
                                        daemon=True)
        self._helper.start()

    def _fill(self):
        try:
            while not self._stop.is_set():
                state = self._rng.bit_generator.state
                self._queue.put((state, self._rng.standard_normal(self._chunk)))
        except BaseException as exc:  # not swallowed: take() raises it
            self._queue.put((None, exc))

    def _next_block(self):
        state, block = self._queue.get()
        if state is None:
            raise block
        self._start, self._block, self._used = state, block, 0

    def take(self, shape) -> np.ndarray:
        count = math.prod(shape)
        if self._used + count <= self._block.size:
            part = self._block[self._used:self._used + count]
            self._used += count
            return part.reshape(shape)
        parts = [self._block[self._used:]]
        count -= parts[0].size
        while count:
            self._next_block()
            parts.append(self._block[:count])
            self._used = parts[-1].size
            count -= self._used
        return np.concatenate(parts).reshape(shape)

    def close(self):
        self._stop.set()
        # after the stop the helper puts at most once more, and a queue
        # emptied here has room for it, so the join cannot block for good
        while True:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                break
        self._helper.join()
        self._rng.bit_generator.state = self._start
        if self._used:
            self._rng.standard_normal(self._used)


def bridge_integral_batch(x, y, grid: TimeGrid, v: Potential,
                          rng: np.random.Generator, n: int,
                          record_idx=None, *, draw_ahead: bool = False):
    """Integrals of v along n bridge paths from x to y over [0, grid.horizon].

    Returns (values, recorded) where recorded stacks positions at the
    requested node indices with shape (len(record_idx), n, d).  Memory
    stays O(n d) regardless of the grid size.

    ``draw_ahead`` draws the cohort's normals on a helper thread (module
    notes), in stream order: the outputs and the state ``rng`` is left in
    are those of inline draws, bit for bit.  Phase 2 always draws inline.
    """
    x, y = _finite_point(x), _finite_point(y)
    if x.shape != y.shape:
        raise ValueError("bridge endpoints must have the same dimension")
    values, _, recorded = _integrate(x, y, grid.nodes, v, rng, n, record_idx, draw_ahead)
    return values, recorded


def free_integral_batch(x, grid: TimeGrid, v: Potential,
                        rng: np.random.Generator, n: int, *, draw_ahead: bool = False):
    """Integrals of v along n free paths; also returns terminal positions.

    ``draw_ahead`` is as for ``bridge_integral_batch``: the cohort's
    normals come from a helper thread in stream order, the outputs and the
    final state of ``rng`` are unchanged, and phase 2 draws inline.
    """
    values, terminal, _ = _integrate(_finite_point(x), None, grid.nodes, v, rng, n, None,
                                     draw_ahead)
    return values, terminal


def _advance(z, y, w, sd, eps):
    """One exact transition: z + w (y - z) + sd eps for a bridge, z + sd eps free.

    ``w`` and ``sd`` are scalars (the cohort) or columns (one per leaver).
    ``eps`` is overwritten, and a free path's ``z`` is updated in place.
    """
    eps *= sd
    if y is None:
        z += eps
        return z
    # y - z column by column: broadcasting y over rows of length d is slow
    step = np.empty_like(z)
    for i, y_i in enumerate(y):
        np.subtract(y_i, z[:, i], out=step[:, i])
    step *= w
    step += z
    step += eps
    return step


def _plan_steps(nodes, node, s, dist, radius: float, y_off, least: float, stops, long_step):
    """Where each phase-2 path steps next: the grid index and time it reaches.

    A path at distance ``dist`` from the support's centre, so ``gap`` from
    its ball of radius ``radius``, may cover a span with kappa sqrt(span) +
    a span <= gap.  a bounds the drift speed of a bridge mean toward y,
    (dist + y_off) / (t - s) with y_off = |y - center|; ``y_off`` is None
    for a free path, whose a is 0.  The path goes to the last grid node
    within the span, at least the next one, and never past the next of
    ``stops``.  When it cannot reach the next node and that node is more
    than ``least`` away (``long_step`` flags those grid intervals), it takes
    instead an equal part, no longer than max(span, least), of the rest of
    the interval, and keeps its grid index.
    """
    t = nodes[-1]
    gap = np.maximum(dist - radius, 0.0)
    if y_off is None:
        root = gap / _KAPPA
    else:
        # root = sqrt(span) solves kappa r + a r^2 = gap
        disc = dist + y_off
        disc *= 4.0 * gap
        disc /= t - s
        disc += _KAPPA * _KAPPA
        root = 2.0 * gap / (_KAPPA + np.sqrt(disc))
    span = root * root
    reach = s + span
    to = node + 1
    jump = reach >= nodes[np.minimum(node + 2, nodes.size - 1)]
    if jump.any():
        to[jump] = np.searchsorted(nodes, reach[jump], side="right") - 1
    if stops.size > 1:
        np.minimum(to, stops[np.searchsorted(stops, node, side="right")], out=to)
    s_to = nodes[to]
    # only a path that stops short of the next node steps inside an interval,
    # and only an interval longer than least is worth splitting
    long = np.flatnonzero(long_step[node])
    if long.size:
        short = long[reach[long] < s_to[long]]
        rest = s_to[short] - s[short]
        parts = np.ceil(rest / np.maximum(span[short], least) - 1e-9)
        many = parts > 1
        split = short[many]
        s_to[split] = s[split] + rest[many] / parts[many]
        to[split] = node[split]
    return to, s_to


@np.errstate(over="ignore")
def _integrate(x, y, nodes, v: Potential, rng, n: int, record_idx, draw_ahead: bool):
    """The path engine behind both batch calls; ``y`` is None for a free path.

    Returns (values, terminal positions, recorded positions or None), each
    in path order.  Phase 1 walks the cohort node by node, with its normals
    drawn ahead on a helper thread when ``draw_ahead``; phase 2 moves every
    path that left it by distance-adaptive steps (module notes).  A
    distance that overflows to inf reads as far, so overflow is silent.
    """
    last = nodes.size - 1
    t = nodes[-1]
    d = x.size
    if v.dim != d:
        raise ValueError(f"points have dimension {d}, potential has {v.dim}")
    center, radius = v.center, v.support_radius
    rec_nodes, rec_slot = np.unique(np.asarray(() if record_idx is None else record_idx,
                                               dtype=int), return_inverse=True)
    rec = np.empty((rec_nodes.size, n, d))
    slot = np.full(nodes.size, -1)
    slot[rec_nodes] = np.arange(rec_nodes.size)
    values, terminal = np.empty(n), np.empty((n, d))

    # phase 1: the cohort steps node by node, one draw block per node, and
    # sums v by the trapezoid rule: node j weighs half of each adjacent step
    half = 0.5 * np.diff(nodes)
    weight = np.append(half, 0.0)
    weight[1:] += half
    ids = np.arange(n)
    z = np.broadcast_to(x, (n, d)).copy()
    acc = np.zeros(n)
    if slot[0] >= 0:
        rec[slot[0]] = z
    left = []
    # the helper's look-ahead never exceeds what the cohort could draw
    supply = _Normals(rng, min(_CHUNK_DRAWS, n * d * last)) if draw_ahead else None
    draw = rng.standard_normal if supply is None else supply.take
    try:
        for j in range(last):
            # a path leaves only while it could jump K nodes: near the horizon
            # the cohort has too few nodes left to save
            if j % _CHECK_EVERY == 0 and j + _LEAVE_NODES <= last:
                reach = radius + _KAPPA * math.sqrt(nodes[j + _LEAVE_NODES] - nodes[j])
                far = _row_norms(z, center) > reach
                if far.any():
                    if ids.size - np.count_nonzero(far) < _COHORT_SHARE * n:
                        far[:] = True
                    # a leaver closes its last cohort step with that step's right half
                    gone = acc[far] + v(z[far]) * half[j - 1] if j else acc[far]
                    left.append((ids[far], z[far], gone, np.full(np.count_nonzero(far), j)))
                    ids, z, acc = ids[~far], z[~far], acc[~far]
                    if ids.size == 0:
                        break
            s_j, s_next = nodes[j], nodes[j + 1]
            ds = s_next - s_j
            acc += v(z) * weight[j]
            if y is None:
                z = _advance(z, None, None, math.sqrt(ds), draw(z.shape))
            elif s_next >= t:
                z = np.broadcast_to(y, z.shape).copy()
            else:
                z = _advance(z, y, ds / (t - s_j), math.sqrt(ds * (t - s_next) / (t - s_j)),
                             draw(z.shape))
            if slot[j + 1] >= 0:
                rec[slot[j + 1], ids] = z
        else:
            acc += v(z) * half[-1]
            values[ids], terminal[ids] = acc, z
    finally:
        if supply is not None:
            supply.close()
    # phase 2: per-path clocks, all leavers stepping together
    if left:
        ids, z, acc, node = (np.concatenate(parts) for parts in zip(*left))
        s = nodes[node]
        # in a long interval a path near the support steps by at most the
        # finest grid step or (R / kappa)^2, a sixth of R in spread
        least = max(float(np.diff(nodes).min()), (radius / _KAPPA) ** 2)
        long_step = np.diff(nodes) > least
        stops = np.append(rec_nodes[rec_nodes > 0], last)
        y_off = None if y is None else float(np.linalg.norm(y - center))
        while ids.size:
            # one distance per path and step: it plans the step and, for a
            # radial v, gives v(z) too
            dist = _row_norms(z, center)
            to, s_to = _plan_steps(nodes, node, s, dist, radius, y_off, least, stops, long_step)
            ds = s_to - s
            acc += (v.profile(dist) if v.is_radial else v(z)) * ds
            eps = rng.standard_normal(z.shape)
            if y is None:
                z = _advance(z, None, None, np.sqrt(ds)[:, None], eps)
            else:
                w = ds / (t - s)
                z = _advance(z, y, w[:, None], np.sqrt(w * (t - s_to))[:, None], eps)
            done = to == last
            finished = done.any()
            if finished and y is not None:
                z[done] = y
            if rec_nodes.size:
                hit = (to > node) & (slot[to] >= 0)
                rec[slot[to[hit]], ids[hit]] = z[hit]
            node, s = to, s_to
            if finished:
                values[ids[done]], terminal[ids[done]] = acc[done], z[done]
                keep = ~done
                ids, z, acc, node, s = ids[keep], z[keep], acc[keep], node[keep], s[keep]
    return values, terminal, (rec[rec_slot] if rec_nodes.size else None)
