"""Bounded, compactly supported potentials.

A potential carries its sup bound K and support radius R explicitly.  It is
radial (a ball indicator or a radial step) or tabulated on a regular grid;
its Green potential and occupation bound are in ``green``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Potential"]

_RADIAL_KINDS = ("ball_indicator", "radial_step")
KINDS = _RADIAL_KINDS + ("tabulated",)


def _row_norms(pts: np.ndarray, center: np.ndarray) -> np.ndarray:
    """|pts - center| row by row, bit-identical to np.linalg.norm(pts - center, axis=-1).

    numpy sums a row shorter than 8 left to right; doing the same sum
    column by column skips its per-row broadcast and reduction overhead,
    which dominated a path step.  Longer rows take numpy's pairwise
    reduction itself.
    """
    if pts.shape[-1] >= 8:
        return np.linalg.norm(pts - center, axis=-1)
    total = None
    for i, c in enumerate(center):
        col = pts[..., i] - c
        col *= col
        if total is None:
            total = col
        else:
            total += col
    return np.sqrt(total, out=total)


class Potential:
    """Bounded measurable potential with bounded support.

    Radial kinds (ball_indicator, radial_step) are piecewise constant in
    the distance from the center: heights[i] on (breakpoints[i-1],
    breakpoints[i]].  Tabulated potentials are piecewise constant on the
    half-open cells [origin + i h, origin + (i + 1) h) of a regular grid of
    spacing h, so the table's upper faces lie outside it; measurability is
    all that is assumed, so no smoothing is applied.  NaN and infinite
    points evaluate to 0.  The table is padded with one zero cell on every
    side and flattened once, when the potential is built, and each call
    reads every point's value with one gather from it.  ``values`` is a
    view of the padded table's interior, so the table is stored once, in C
    order whatever the layout it was given in.
    """

    def __init__(self, dim, kind, center, sup_bound, support_radius, *,
                 breakpoints=None, heights=None,
                 origin=None, spacing=None, values=None):
        if kind not in KINDS:
            raise ValueError(f"unknown potential kind {kind!r}; expected one of {KINDS}")
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.dim = int(dim)
        self.kind = kind
        self.center = np.asarray(center, dtype=float).reshape(self.dim)
        self.sup_bound = float(sup_bound)
        self.support_radius = float(support_radius)
        self.breakpoints = None if breakpoints is None else np.asarray(breakpoints, float)
        self.heights = None if heights is None else np.asarray(heights, float)
        self.origin = None if origin is None else np.asarray(origin, float).reshape(self.dim)
        self.spacing = None if spacing is None else float(spacing)
        self.values = None if values is None else np.asarray(values, float)
        if self.sup_bound < 0 or self.support_radius < 0:
            raise ValueError("sup bound and support radius must be nonnegative")
        if kind == "tabulated":
            # one zero cell on every side, so every point reads one entry of
            # the flat table: the cell it lies in, or a zero pad cell.  The
            # strides are those of this C-ordered array, whatever the layout
            # of ``values``, which becomes a view of its interior.
            padded = np.zeros(tuple(n + 2 for n in self.values.shape))
            interior = (slice(1, -1),) * padded.ndim
            padded[interior] = self.values
            self.values = padded[interior]
            self._flat = padded.reshape(-1)
            self._shape = np.asarray(self.values.shape, dtype=float)
            self._strides = np.asarray(padded.strides, dtype=float) / padded.itemsize

    # -- constructors --------------------------------------------------

    @classmethod
    def ball_indicator(cls, dim, radius, height=1.0, center=None):
        """height * indicator of the ball of the given radius."""
        if radius <= 0:
            raise ValueError("ball radius must be positive")
        center = np.zeros(dim) if center is None else center
        return cls(dim, "ball_indicator", center, abs(float(height)), float(radius),
                   breakpoints=[radius], heights=[height])

    @classmethod
    def radial_step(cls, dim, breakpoints, heights, center=None):
        """Piecewise-constant radial profile with the given band edges."""
        bp = np.asarray(breakpoints, dtype=float)
        h = np.asarray(heights, dtype=float)
        if bp.ndim != 1 or h.shape != bp.shape or bp.size == 0:
            raise ValueError("breakpoints and heights must be matching 1-d sequences")
        if bp[0] <= 0 or np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be positive and strictly increasing")
        center = np.zeros(dim) if center is None else center
        return cls(dim, "radial_step", center, float(np.max(np.abs(h))) if h.size else 0.0,
                   float(bp[-1]), breakpoints=bp, heights=h)

    @classmethod
    def tabulated(cls, dim, origin, spacing, values):
        """Piecewise-constant table on a regular grid anchored at ``origin``.

        ``values[i_1, ..., i_d]`` is the value on the half-open cell
        [origin + i h, origin + (i + 1) h) with h = ``spacing``; points on
        or beyond the upper faces, and NaN or infinite points, read 0.
        ``values`` needs at least one cell on every axis.  The zero-padded
        flat table that evaluation reads is built here, once.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != dim:
            raise ValueError(f"values must be a {dim}-dimensional array")
        if values.size == 0:
            raise ValueError(f"values must have at least one cell on every axis, "
                             f"got shape {values.shape}")
        spacing = float(spacing)
        if spacing <= 0:
            raise ValueError("grid spacing must be positive")
        origin = np.asarray(origin, dtype=float).reshape(dim)
        extent = spacing * np.asarray(values.shape, dtype=float)
        center = origin + extent / 2.0
        radius = 0.5 * float(np.linalg.norm(extent)) + spacing / 2.0
        return cls(dim, "tabulated", center, float(np.max(np.abs(values))),
                   radius, origin=origin, spacing=spacing, values=values)

    # -- evaluation ----------------------------------------------------

    @property
    def is_radial(self) -> bool:
        return self.kind in _RADIAL_KINDS

    def profile(self, u):
        """Radial profile at distances u from the center (radial kinds only)."""
        if not self.is_radial:
            raise ValueError("profile is defined for radial potentials only")
        u = np.asarray(u, dtype=float)
        if self.breakpoints.size == 1:
            # a ball: one compare; NaN falls outside, as with searchsorted
            out = np.where(u <= self.breakpoints[0], self.heights[0], 0.0)
        else:
            idx = np.searchsorted(self.breakpoints, u, side="left")
            padded = np.concatenate((self.heights, [0.0]))
            out = padded[np.minimum(idx, len(self.heights))]
        return out if out.ndim else float(out)

    def bands(self):
        """Radial bands as (lo, hi, height) triples covering the support."""
        if not self.is_radial:
            raise ValueError("bands are defined for radial potentials only")
        edges = np.concatenate(([0.0], self.breakpoints))
        return [(float(edges[i]), float(edges[i + 1]), float(h))
                for i, h in enumerate(self.heights)]

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        squeeze = z.ndim == 1
        pts = np.atleast_2d(z)
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points have dimension {pts.shape[-1]}, potential has {self.dim}")
        if self.is_radial:
            out = self.profile(_row_norms(pts, self.center))
        else:
            # cell index per axis, clamped to the pad cells -1 and n_i; fmin
            # and fmax send NaN to the pad and never cast a non-finite value
            flat = None
            for i in range(self.dim):
                c = pts[..., i] - self.origin[i]
                c /= self.spacing
                np.floor(c, out=c)
                np.fmin(c, self._shape[i], out=c)
                np.fmax(c, -1.0, out=c)
                c += 1.0
                c *= self._strides[i]
                if flat is None:
                    flat = c
                else:
                    flat += c
            out = self._flat[flat.astype(np.intp)]
        out = np.asarray(out, dtype=float)
        return float(out[0]) if squeeze else out

    # -- transforms ----------------------------------------------------

    def with_height_factor(self, factor: float) -> "Potential":
        """Potential factor * v."""
        factor = float(factor)
        if self.is_radial:
            return Potential(self.dim, self.kind, self.center,
                             abs(factor) * self.sup_bound, self.support_radius,
                             breakpoints=self.breakpoints, heights=factor * self.heights)
        return Potential.tabulated(self.dim, self.origin, self.spacing, factor * self.values)

    def dilated(self, lam: float) -> "Potential":
        """Potential z -> v(z / lam); support and center scale by lam."""
        if lam <= 0:
            raise ValueError("dilation factor must be positive")
        if self.is_radial:
            return Potential(self.dim, self.kind, lam * self.center, self.sup_bound,
                             lam * self.support_radius,
                             breakpoints=lam * self.breakpoints, heights=self.heights)
        return Potential.tabulated(self.dim, lam * self.origin, lam * self.spacing, self.values)

    def shifted(self, delta) -> "Potential":
        """Potential z -> v(z - delta)."""
        delta = np.asarray(delta, dtype=float).reshape(self.dim)
        if self.is_radial:
            return Potential(self.dim, self.kind, self.center + delta, self.sup_bound,
                             self.support_radius,
                             breakpoints=self.breakpoints, heights=self.heights)
        return Potential.tabulated(self.dim, self.origin + delta, self.spacing, self.values)

    @property
    def is_nonnegative(self) -> bool:
        data = self.heights if self.is_radial else self.values
        return bool(np.all(data >= 0))

    @property
    def is_zero(self) -> bool:
        data = self.heights if self.is_radial else self.values
        return bool(np.all(data == 0.0))

    def support_box(self):
        """Axis-aligned box (lo, hi) containing the support."""
        if self.kind == "tabulated":
            extent = self.spacing * np.asarray(self.values.shape, dtype=float)
            return self.origin.copy(), self.origin + extent
        r = self.support_radius
        return self.center - r, self.center + r

    def __repr__(self):
        return (f"Potential(kind={self.kind!r}, dim={self.dim}, "
                f"sup_bound={self.sup_bound:g}, support_radius={self.support_radius:g})")
