"""Bounded, compactly supported potentials and their occupation-integral bounds.

A potential carries its sup bound K and support radius R explicitly.  The
time-integrated transition density of transient Brownian motion reduces the
expected total occupation integral to a spatial Green-potential integral,

    int_0^inf q(s; w) ds = Gamma(d/2 - 1) / (2 pi^(d/2)) |w|^(2-d),

which this module evaluates in closed form for radial potentials and by
cell quadrature for tabulated ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "Potential",
    "BoundsReport",
    "green_constant",
    "sphere_area",
    "ball_green_integral",
    "green_potential",
    "green_potential_radial",
    "k1_bound",
]

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


def green_constant(d: int) -> float:
    """Constant c_d in the Green kernel c_d |w|^(2-d); requires d >= 3."""
    if d < 3:
        raise ValueError(
            f"the unbounded-time occupation integral diverges for d={d}; "
            "transient dimension d >= 3 is required"
        )
    return float(special.gamma(d / 2.0 - 1.0)) / (2.0 * math.pi ** (d / 2.0))


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / float(special.gamma(d / 2.0))


def ball_green_integral(radius: float, b, d: int):
    """Integral of |z - y|^(2-d) over the ball |z| <= radius, at offsets b = |y|.

    The kernel is harmonic away from y, so spherical shells average to
    max(shell radius, b)^(2-d) and the integral has the closed form used
    here.  Vectorized over b; valid for d >= 3.
    """
    b = np.asarray(b, dtype=float)
    if radius < 0 or np.any(b < 0):
        raise ValueError("radius and offset must be nonnegative")
    if radius == 0.0:
        out = np.zeros(b.shape)
        return out if out.ndim else float(out)
    area = sphere_area(d)
    inside = b < radius
    out = np.empty(b.shape)
    bo = np.maximum(b, radius)
    out[~inside] = area * radius**d * bo[~inside] ** (2.0 - d) / d
    out[inside] = area * (b[inside] ** 2 / d + (radius**2 - b[inside] ** 2) / 2.0)
    return out if out.ndim else float(out)


def cell_green_kernel(dist, cell_vol: float, d: int):
    """|w|^(2-d) at distances ``dist`` from the nodes of cells of volume ``cell_vol``.

    Within the radius of the equal-volume ball the singular kernel is
    replaced by its average over that ball.
    """
    dist = np.asarray(dist, dtype=float)
    r_eq = (cell_vol * d / sphere_area(d)) ** (1.0 / d)
    kern = np.full(dist.shape, ball_green_integral(r_eq, 0.0, d) / cell_vol)
    far = dist > r_eq
    kern[far] = dist[far] ** (2.0 - d)
    return kern


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


def green_potential_radial(v: Potential, dist, *, absolute: bool = False):
    """Green potential of a radial v at distances ``dist`` from its center.

    Vectorized band-by-band closed form; the workhorse behind k1 bounds,
    infinite-horizon moments and truncation-tail corrections.
    """
    if not v.is_radial:
        raise ValueError("the radial Green potential needs a radial potential")
    dist = np.asarray(dist, dtype=float)
    d = v.dim
    cd = green_constant(d)
    total = np.zeros(dist.shape)
    for lo, hi, h in v.bands():
        if absolute:
            h = abs(h)
        if h == 0.0:
            continue
        hi_int = ball_green_integral(hi, dist, d)
        lo_int = ball_green_integral(lo, dist, d) if lo > 0 else 0.0
        total = total + h * (hi_int - lo_int)
    out = cd * total
    return out if out.ndim else float(out)


def green_potential(v: Potential, y, *, absolute: bool = False) -> float:
    """Green-potential integral int v(z) c_d |z - y|^(2-d) dz at the point y.

    Exact band-by-band for radial potentials; cell midpoint quadrature with
    an exact equal-volume-ball rule on the singular cell for tabulated ones.
    """
    d = v.dim
    cd = green_constant(d)
    y = np.asarray(y, dtype=float).reshape(d)
    if v.is_radial:
        b = float(np.linalg.norm(y - v.center))
        return float(green_potential_radial(v, b, absolute=absolute))
    vals = np.abs(v.values) if absolute else v.values
    shape = vals.shape
    h = v.spacing
    centers = [v.origin[i] + h * (np.arange(shape[i]) + 0.5) for i in range(d)]
    mesh = np.meshgrid(*centers, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    w = vals.ravel()
    cell_vol = h**d
    kern = cell_green_kernel(np.linalg.norm(pts - y, axis=-1), cell_vol, d)
    return cd * cell_vol * float(np.sum(w * kern))


@dataclass
class BoundsReport:
    """Occupation-integral bound K1 and the implied mgf radius alpha0 = 1/K1."""

    k1: float
    alpha0: float | None
    degenerate: bool = False
    probe_count: int = 0

    def as_dict(self):
        return {
            "k1": self.k1,
            "alpha0": self.alpha0,
            "degenerate": self.degenerate,
            "probe_count": self.probe_count,
        }


def default_probes(v: Potential) -> np.ndarray:
    """Probe points: support center, direction shells at R and 2R.

    The Green-potential integral decays like |y|^(2-d) away from the
    support, so its sup over R^d is attained on or near the support; a
    finite probe set with boundary and exterior shells suffices.
    """
    d = v.dim
    center = v.center
    R = v.support_radius
    if R == 0.0:
        return center.reshape(1, d)
    if d <= 4:
        dirs = np.array([p for p in np.ndindex(*(3,) * d)], dtype=float) - 1.0
        dirs = dirs[np.any(dirs != 0, axis=1)]
    else:
        eye = np.eye(d)
        dirs = np.vstack([eye, -eye])
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    probes = [center.reshape(1, d), center + R * dirs, center + 2.0 * R * dirs]
    return np.vstack(probes)


def k1_bound(v: Potential, probe_points=None) -> BoundsReport:
    """Upper envelope of the expected total occupation integral of |v|.

    Evaluates int |v(z)| c_d |z - y|^(2-d) dz over a probe set of start
    points y and reports the maximum as K1, together with alpha0 = 1/K1.
    A potential that vanishes a.e. is reported as degenerate with
    unbounded alpha0.
    """
    if v.dim < 3:
        raise ValueError(
            "K1 requires d >= 3: in lower dimension Brownian motion is "
            "recurrent and the time-integrated occupation bound diverges"
        )
    probes = default_probes(v) if probe_points is None else np.atleast_2d(
        np.asarray(probe_points, dtype=float))
    if probes.size == 0:
        raise ValueError("the probe set must be nonempty")
    vals = [green_potential(v, y, absolute=True) for y in probes]
    k1 = float(np.max(vals))
    if k1 == 0.0:
        return BoundsReport(k1=0.0, alpha0=None, degenerate=True, probe_count=len(probes))
    return BoundsReport(k1=k1, alpha0=1.0 / k1, degenerate=False, probe_count=len(probes))
