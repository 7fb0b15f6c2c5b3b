"""Operators solved in space: the Green potential, the gauge and Kac's resolvent.

The time-integrated transition density of transient Brownian motion
(d >= 3) is the Green kernel

    int_0^inf q(s; w) ds = Gamma(d/2 - 1) / (2 pi^(d/2)) |w|^(2-d),

and every operator here is an equation in space built on it:

* the Green potential G v, the expected total occupation integral, in
  closed form band by band for radial potentials and by exact cell
  integrals for tabulated ones, with the occupation bound K1 = sup G|v|;
* the Green chain, Kac's moment formula m_k = k G(v m_(k-1)) for the
  infinite-horizon moments: band by band for a radial potential, on
  sub-cells for a tabulated one;
* the gauge u(x) = E_x exp(alpha Y) (Chung & Zhao 1995), with the interval
  of alpha on which it is finite: for a radial potential a radial ODE
  solved band by band in the resolvent's Bessel basis at one real alpha,
  for a tabulated one a linear solve on sub-cells, whose interval ends are
  the extreme eigenvalues of G v (Birman 1961; Schwinger 1961);
* Kac's resolvent (Kac 1949), channel by channel in one radial Bessel
  basis, r^-nu I and r^-nu K of complex kappa, in which J and Y are the
  case of imaginary kappa; inverted in time it gives radial bridge moments
  k = 1, 2 and 3, and, applied to 1, free ones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .potentials import Potential

__all__ = [
    "green_constant",
    "sphere_area",
    "ball_green_integral",
    "green_potential_radial",
    "green_potential",
    "BoundsReport",
    "k1_bound",
    "panel_rule",
    "radial_rule",
    "green_chain",
    "cell_chain",
    "MGF_TOLERANCE",
    "CELL_TOLERANCE",
    "CELL_MGF_TOLERANCE",
    "CELL_ALPHA1_TOLERANCE",
    "mgf_tolerance",
    "alpha1_interval",
    "mgf_one_sided",
    "resolvent_moments",
]


# -- the Green kernel and the Green potential ---------------------------------

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


def green_potential_radial(v: Potential, dist, *, absolute: bool = False):
    """Green potential of a radial v at distances ``dist`` from its center.

    Vectorized band-by-band closed form; the workhorse behind k1 bounds
    and infinite-horizon moments.
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

    Exact band-by-band for radial potentials, and cell by cell for
    tabulated ones (``_cell_potential``).
    """
    d = v.dim
    green_constant(d)  # raises below d = 3
    y = np.asarray(y, dtype=float).reshape(d)
    if v.is_radial:
        b = float(np.linalg.norm(y - v.center))
        return float(green_potential_radial(v, b, absolute=absolute))
    vals = np.abs(v.values) if absolute else v.values
    return _cell_potential(y, v.origin, v.spacing, vals)


# -- the occupation bound K1 --------------------------------------------------

@dataclass
class BoundsReport:
    """K1 = sup G|v| (``k1_bound``) and the mgf radius alpha0 = 1/K1 it implies."""

    k1: float
    alpha0: float | None
    degenerate: bool = False

    def as_dict(self):
        return {"k1": self.k1, "alpha0": self.alpha0, "degenerate": self.degenerate}


def k1_bound(v: Potential) -> BoundsReport:
    """K1 = sup_x int |v(z)| c_d |x - z|^(2-d) dz, read from v alone, and alpha0 = 1/K1.

    G|v| is harmonic off the support and vanishes at infinity, so its sup
    lies on the support.  For a radial v it does not increase with the
    radius, and K1 is its centre value.  For a table K1 is the largest of
    the centre value and the values at the sub-cell centres of the cell
    solves (``_subcells``): exact point values of G|v|, so K1 approaches
    the sup from below.  A potential that vanishes a.e. is reported as
    degenerate with unbounded alpha0.
    """
    if v.dim < 3:
        raise ValueError(
            "K1 requires d >= 3: in lower dimension Brownian motion is "
            "recurrent and the time-integrated occupation bound diverges"
        )
    k1 = green_potential(v, v.center, absolute=True)
    if not v.is_radial:
        key = _cell_key(v)
        for m in _subcells(key):
            cells = _cells(key, m)
            k1 = max(k1, float(np.max(cells.green(np.abs(cells.values)))))
    if k1 == 0.0:
        return BoundsReport(k1=0.0, alpha0=None, degenerate=True)
    return BoundsReport(k1=k1, alpha0=1.0 / k1)


# -- radial rules and the Green chain -----------------------------------------

# Gauss-Legendre nodes per radial band panel; the declared tolerances of the
# infinite-horizon moments hold for this order.
_SPACE_NODES = 12


@functools.cache
def _leggauss(m: int):
    """Gauss-Legendre nodes and weights of order m on [-1, 1]; callers must not write to them."""
    return np.polynomial.legendre.leggauss(m)


def panel_rule(edges, m: int):
    """Gauss-Legendre nodes and weights over consecutive panels."""
    x, w = _leggauss(m)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * x)
        weights.append(half * w)
    if not nodes:
        return np.empty(0), np.empty(0)
    return np.concatenate(nodes), np.concatenate(weights)


def _radial_edges(v: Potential, extra=()):
    pts = [0.0] + [hi for _, hi, _ in v.bands()] + [lo for lo, _, _ in v.bands()]
    pts += [float(e) for e in extra if 0.0 <= e <= v.support_radius]
    return sorted(set(round(p, 15) for p in pts))


def radial_rule(v: Potential, extra=()):
    """Nodes and weights in the radius over the bands of a radial v, split at ``extra``."""
    return panel_rule(_radial_edges(v, extra), _SPACE_NODES)


def green_chain(v: Potential, b: float, k: int) -> float:
    """E Y^k of the infinite-horizon integral from distance b to the center of a radial v.

    Kac's moment formula m_k = k G(v m_{k-1}), with m_1 the Green potential.
    Over the sphere of radius u the Green kernel averages to
    c_d max(u, b)^(2-d), so each order is a radial integral on panels split
    at the kernel's kink u = b.
    """
    if k == 1:
        return float(green_potential_radial(v, b))
    d = v.dim
    u, w = radial_rule(v, extra=(b,))
    if u.size == 0:
        return 0.0
    if k == 2:
        prev = green_potential_radial(v, u)
    else:
        prev = np.array([green_chain(v, ui, k - 1) for ui in u])
    kernel = green_constant(d) * np.maximum(u, b) ** (2.0 - d)
    integ = u ** (d - 1) * v.profile(u) * kernel * prev
    return float(k * sphere_area(d) * np.sum(w * integ))


# -- cell operators for tabulated potentials -----------------------------------
#
# The Green potential of a box is the time integral of its Gaussian mass,
#   int_box G(x - z) dz
#     = int_0^inf prod_i [Phi((b_i - x_i) / sigma) - Phi((a_i - x_i) / sigma)] ds,
# sigma = sqrt(s): one ndtr per axis and cell, the same in every d >= 3, and
# a table's Green potential contracts the table with each axis's masses in
# turn.  Doubling Gauss-Legendre panels in sigma run out to _CELL_REACH times
# the farthest cell corner; past that each factor is expanded in 1/s,
# (2 pi s)^(-1/2) (b - a - int_a^b u^2 du / (2 s)), and the tail is closed
# form.  The first term it drops is (corner / sigma)^4 of the tail.
#
# For the operators on a function u, the cells are split into m^d sub-cells
# on which u is constant, and each sub-cell's exact Green integral, seen from
# the centre of another, depends only on their offset: one FFT convolution
# applies G to every sub-cell at once.  From it come Kac's chain
# m_k = k G(v m_(k-1)) at the sub-cell centres (m_1 there is exact), the
# gauge u = 1 + alpha G(v u) by GMRES, and alpha1+- = 1 / lambda+- for the
# extreme eigenvalues lambda of G v (Birman 1961; Schwinger 1961), both from
# Arnoldi's Krylov basis; each is then read at a point by the exact cell
# integrals against v u.  The error of piecewise-constant u falls like m^-2,
# so every value is extrapolated (Romberg) from solves on m = 1, 2, 4.
#
# _CELL_NODES Gauss-Legendre nodes a sigma panel; the first panel is
# _CELL_BASE cell sides long; from _FAR_CELLS cell sides away the cells read
# as point masses (``_cell_potential``).  _SUBCELLS is the largest m, halved
# (down to 2) while its grid would hold more than _CELL_UNKNOWNS sub-cells.
# An Arnoldi run takes _KRYLOV vectors and restarts at most _RESTARTS times;
# GMRES stops at the relative residual _SOLVE_RTOL, and an eigenvalue at the
# relative residual _EIGEN_RTOL.  Both are numpy: importing
# scipy.sparse.linalg would add about 90 ms to every run that reads a
# table's gauge or alpha1.
#
# Declared relative errors of the cell values: E Y^k by k, the gauge and
# alpha1.  k = 1 is exact up to rounding: 1e-15 from the d = 3 cuboid closed
# form at five points of a 6^3 table.  For the others, the Richardson
# differences (the last Romberg step) read at most 8.4e-4 (k = 2), 1.5e-3
# (k = 3) and 1.1e-3 (alpha1) on seven tables in d = 3 to 5, at points in,
# on and off them, and 6e-4 for the gauge where |alpha| is at most half of
# alpha1 of |v|; they grow toward alpha1 and with |alpha| sup |v|.  Each
# tolerance is five times the difference a call may show (``_checked``).
CELL_TOLERANCE = {1: 1e-12, 2: 5e-3, 3: 1e-2}
CELL_MGF_TOLERANCE = 1e-2
CELL_ALPHA1_TOLERANCE = 1e-2
_CELL_NODES = 16
_CELL_BASE = 1.0 / 16.0
_CELL_REACH = 1024.0
_FAR_CELLS = 1000.0
_SUBCELLS = 4
_CELL_UNKNOWNS = 2**16
_KRYLOV = 40
_RESTARTS = 25
_SOLVE_RTOL = 1e-13
_EIGEN_RTOL = 1e-12


@functools.lru_cache(maxsize=64)
def _doubling_rule(n: int):
    """Nodes and weights in s = sigma^2 on the sigma panels 0, 1, 2, 4, ..., 2^n."""
    sigma, w = panel_rule(np.concatenate(([0.0], 2.0 ** np.arange(n + 1))), _CELL_NODES)
    return sigma, 2.0 * sigma * w


def _sigma_rule(step: float, far: float):
    """Nodes sigma, their weights in s = sigma^2 and the last edge, for cells of side ``step``."""
    base = _CELL_BASE * step
    n = max(1, math.ceil(math.log2(_CELL_REACH * far / base)))
    sigma, w = _doubling_rule(n)
    return base * sigma, base * base * w, base * 2.0**n


def _axis_terms(edges: np.ndarray, sigma: np.ndarray):
    """Per interval between ``edges`` (offsets from the point): its Gaussian mass
    at each sigma, shape (P, n); its width; and int u^2 du over it.

    An interval right of the point takes the difference of upper tails, so
    no mass is a difference of two values near 1.
    """
    h = edges / sigma[:, None]
    right = edges[:-1] + edges[1:] > 0.0
    lo = np.where(right, -h[:, 1:], h[:, :-1])
    hi = np.where(right, -h[:, :-1], h[:, 1:])
    return special.ndtr(hi) - special.ndtr(lo), np.diff(edges), np.diff(edges**3) / 3.0


def _tail(d: int, top: float) -> np.ndarray:
    """Weights of (sum prod widths, sum prod widths sum_i M2_i / width_i) in the s > top^2 tail."""
    scale = (2.0 * math.pi) ** (-d / 2.0)
    return scale * np.array([2.0 * top ** (2.0 - d) / (d - 2.0), -top ** (-d) / d])


def _contract(values: np.ndarray, factors) -> np.ndarray:
    """sum_c values[c] prod_i factors[i][:, c_i] for each row of the factors."""
    acc = factors[0] @ values.reshape(values.shape[0], -1)
    for f in factors[1:]:
        acc = np.einsum("pi,pir->pr", f, acc.reshape(acc.shape[0], f.shape[1], -1))
    return acc[:, 0]


def _cell_mass_potential(x, origin, step: float, values: np.ndarray) -> float:
    """c_d step^d sum_c values_c |x - c|^(2-d): each cell's mass at its centre c."""
    d = values.ndim
    axes = [origin[i] + step * (np.arange(values.shape[i]) + 0.5) for i in range(d)]
    centres = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    return green_constant(d) * step**d * float(
        np.sum(values.ravel() * np.linalg.norm(centres - x, axis=-1) ** (2.0 - d)))


def _cell_potential(x, origin, step: float, values: np.ndarray) -> float:
    """int G(x - z) f(z) dz for f = ``values`` on the cells of side ``step`` from ``origin``.

    From _FAR_CELLS cell sides away the cells read as point masses: a
    cube's Green potential outside it differs from its centre's by
    (side / distance)^4 of it (its second moments are isotropic, the kernel
    harmonic), 1e-14 there, while the sigma rule loses about 1e-16
    distance / side to the cancellation of its Gaussian masses.
    """
    d = values.ndim
    x = np.asarray(x, dtype=float)
    lo = np.asarray(origin, dtype=float)
    outside = np.maximum(np.maximum(lo - x, x - lo - step * np.asarray(values.shape)), 0.0)
    if math.hypot(*outside) >= _FAR_CELLS * step:
        return _cell_mass_potential(x, origin, step, values)
    edges = [origin[i] - x[i] + step * np.arange(values.shape[i] + 1) for i in range(d)]
    far = math.hypot(*(float(np.max(np.abs(e))) for e in edges))
    sigma, w, top = _sigma_rule(step, far)
    terms = [_axis_terms(e, sigma) for e in edges]
    widths = [t[1][None, :] for t in terms]
    moments = [_contract(values, widths)[0]]
    moments.append(sum(_contract(values, widths[:j] + [terms[j][2][None, :]] + widths[j + 1:])[0]
                       for j in range(d)))
    return float(w @ _contract(values, [t[0] for t in terms]) + _tail(d, top) @ moments)


def _kernel_table(shape: tuple, step: float) -> np.ndarray:
    """The Green integral over the sub-cell at offset j from a sub-cell centre, 0 <= j < shape."""
    d = len(shape)
    edges = [step * (np.arange(n + 1) - 0.5) for n in shape]
    sigma, w, top = _sigma_rule(step, step * math.sqrt(sum(n * n for n in shape)))
    terms = [_axis_terms(e, sigma) for e in edges]
    acc = w[:, None] * terms[0][0]
    for mass, _, _ in terms[1:-1]:
        acc = acc[..., None] * mass.reshape(mass.shape[0], *([1] * (acc.ndim - 1)), -1)
    table = (acc.reshape(acc.shape[0], -1).T @ terms[-1][0]).reshape(shape)
    # every width is step, so the tail's second moment sum is step^d sum_i M2_i / step
    spread = sum(np.reshape(t[2] / step, [-1 if i == j else 1 for i in range(d)])
                 for j, t in enumerate(terms))
    c0, c2 = _tail(d, top) * step**d
    return table + c0 + c2 * spread


@dataclass(frozen=True)
class _Cells:
    """A table refined to sub-cells, and the spectrum of its Green convolution."""

    origin: np.ndarray
    step: float
    values: np.ndarray
    spectrum: np.ndarray

    def green(self, f: np.ndarray) -> np.ndarray:
        """G f at every sub-cell centre, for f constant on each sub-cell."""
        size, axes = tuple(2 * n for n in f.shape), tuple(range(f.ndim))
        out = np.fft.irfftn(np.fft.rfftn(f, s=size, axes=axes) * self.spectrum, s=size, axes=axes)
        return out[tuple(slice(0, n) for n in f.shape)]

    def at(self, x, f: np.ndarray) -> float:
        """G f at the point x, exactly, for f constant on each sub-cell."""
        return _cell_potential(x, self.origin, self.step, f)

    def gv(self, u: np.ndarray) -> np.ndarray:
        """G v u for a flat u, flat."""
        return self.green(self.values * u.reshape(self.values.shape)).ravel()


def _arnoldi(apply, start: np.ndarray, done):
    """Arnoldi's basis q (rows) and Hessenberg h, apply(q[:k].T) = q[:k + 1].T h.

    Runs until ``done(h)`` holds, k reaches _KRYLOV, or the Krylov space is
    invariant (h's last row then vanishes).
    """
    q = np.empty((_KRYLOV + 1, start.size))
    h = np.zeros((_KRYLOV + 1, _KRYLOV))
    q[0] = start / np.linalg.norm(start)
    for j in range(_KRYLOV):
        w = apply(q[j])
        for _ in range(2):  # Gram-Schmidt twice keeps the basis orthogonal
            c = q[:j + 1] @ w
            w -= c @ q[:j + 1]
            h[:j + 1, j] += c
        h[j + 1, j] = np.linalg.norm(w)
        if h[j + 1, j] <= 1e-14 * np.abs(h[:j + 1, j]).sum() or done(h[:j + 2, :j + 1]):
            return q[:j + 2], h[:j + 2, :j + 1]
        q[j + 1] = w / h[j + 1, j]
    return q, h


def _solve(apply, b: np.ndarray) -> np.ndarray:
    """x with apply(x) = b, by restarted GMRES; ValueError if it does not converge."""
    x = np.zeros(b.size)
    r = b
    goal = _SOLVE_RTOL * np.linalg.norm(b)
    for _ in range(_RESTARTS):
        beta = np.linalg.norm(r)
        if beta <= goal:
            return x
        rhs = np.zeros(_KRYLOV + 1)
        rhs[0] = beta

        def least(h):
            return np.linalg.lstsq(h, rhs[:h.shape[0]], rcond=None)

        q, h = _arnoldi(apply, r, lambda h: np.sqrt(max(least(h)[1].sum(), 0.0)) <= goal)
        x = x + least(h)[0] @ q[:h.shape[1]]
        r = b - apply(x)
    raise ValueError("GMRES did not converge")


def _ritz(h, sign: float):
    """The Ritz value farthest out on the side ``sign``, its vector, and its residual."""
    k = h.shape[1]
    values, vectors = np.linalg.eig(h[:k])
    i = int(np.argmax(sign * values.real))
    y = vectors[:, i].real
    return float(values[i].real), y, abs(h[k, k - 1] * y[-1]) if h.shape[0] > k else 0.0


def _extreme_eigenvalue(apply, n: int, sign: float) -> float:
    """The real eigenvalue of ``apply`` farthest out on the side ``sign``, by restarted Arnoldi."""
    def converged(h):
        lam, _, residual = _ritz(h, sign)
        return residual <= _EIGEN_RTOL * abs(lam)

    start = np.ones(n)
    for _ in range(_RESTARTS):
        q, h = _arnoldi(apply, start, converged)
        lam, y, residual = _ritz(h, sign)
        if residual <= _EIGEN_RTOL * abs(lam):
            return lam
        start = y @ q[:h.shape[1]]
    raise ValueError("Arnoldi's eigenvalue did not converge")


def _cell_key(v: Potential) -> tuple:
    """Everything the cell operators read from a tabulated v, hashable."""
    if v.dim < 3:
        raise ValueError("the cell operators need d >= 3")
    return tuple(v.origin.tolist()), v.spacing, v.values.shape, v.values.tobytes()


def _subcells(key: tuple) -> tuple:
    """The sub-cell counts 1, 2, 4, ..., m of the solves that are extrapolated."""
    shape = key[2]
    m = _SUBCELLS
    while m > 2 and math.prod(shape) * m ** len(shape) > _CELL_UNKNOWNS:
        m //= 2
    return tuple(2**i for i in range(m.bit_length()))


def _extrapolate(values) -> tuple:
    """(value, error estimate) from solves on 1, 2, 4, ... sub-cells.

    Romberg's table for an error in even powers of 1/m; the estimate is
    the change from the value that one solve fewer gives.
    """
    rows = [list(values)]
    while len(rows[-1]) > 1:
        j = len(rows)
        rows.append([b + (b - a) / (4.0**j - 1.0) for a, b in zip(rows[-1], rows[-1][1:])])
    best = rows[-1][0]
    return best, abs(best - rows[-2][-1])


@functools.lru_cache(maxsize=8)
def _cells(key: tuple, m: int) -> _Cells:
    origin, spacing, shape, raw = key
    values = np.frombuffer(raw).reshape(shape)
    for axis in range(len(shape)):
        values = np.repeat(values, m, axis=axis)
    step = spacing / m
    table = _kernel_table(values.shape, step)
    # offsets j mod 2n: |j| below n, and a zero at n, which no product reads
    index = [np.minimum(np.arange(2 * n), 2 * n - np.arange(2 * n)) for n in values.shape]
    full = np.pad(table, [(0, 1)] * table.ndim)[np.ix_(*index)]
    return _Cells(np.asarray(origin), step, values, np.fft.rfftn(full))


@functools.lru_cache(maxsize=64)
def _chain_density(key: tuple, m: int, k: int) -> np.ndarray:
    """v m_(k-1) on the sub-cells of ``_cells(key, m)``, with m_0 = 1."""
    cells = _cells(key, m)
    if k == 1:
        return cells.values
    return cells.values * ((k - 1) * cells.green(_chain_density(key, m, k - 1)))


def _checked(value_error: tuple, tolerance: float, what: str) -> float:
    """The value, once its error estimate is within a fifth of ``tolerance``; else ValueError.

    The fifth is a margin: against solves on twice as many sub-cells per
    axis, the estimate has read up to four times below the error.
    """
    value, error = value_error
    if not 5.0 * error <= tolerance * abs(value):
        raise ValueError(f"the cell solve of {what} misses its declared relative error "
                         f"{tolerance:.0e} (Richardson difference {error / abs(value):.1e})")
    return value


def cell_chain(v: Potential, x, k: int) -> float:
    """E_x Y^k of the infinite-horizon integral of a tabulated v, k >= 1.

    Kac's moment formula m_k = k G(v m_(k-1)) on the sub-cells, read at x
    by exact cell integrals; k = 1 is the exact cell sum itself.  Declared
    relative error ``CELL_TOLERANCE[k]``; a call whose Richardson
    difference exceeds it raises ValueError.
    """
    x = np.asarray(x, dtype=float).reshape(v.dim)
    if k == 1:
        return green_potential(v, x)
    key = _cell_key(v)
    return _checked(_extrapolate([k * _cells(key, m).at(x, _chain_density(key, m, k))
                                  for m in _subcells(key)]), CELL_TOLERANCE[k], f"E Y^{k}")


@functools.lru_cache(maxsize=16)
def _cell_eigenvalue(key: tuple, m: int, sign: float) -> float:
    """sign lambda for lambda, the eigenvalue of G v on the sub-cells farthest out on the side
    ``sign``; 0 when sign * v has no positive part.
    """
    if not np.any(sign * np.frombuffer(key[3]) > 0.0):
        return 0.0
    cells = _cells(key, m)
    return sign * _extreme_eigenvalue(cells.gv, cells.values.size, sign)


def _cell_alpha1(key: tuple, sign: float) -> float:
    """|alpha1| on the side ``sign``: 1 / |lambda|, extrapolated; inf where sign * v <= 0."""
    lam = _extrapolate([_cell_eigenvalue(key, m, sign) for m in _subcells(key)])
    if lam[0] <= 0.0:
        return math.inf
    return 1.0 / _checked(lam, CELL_ALPHA1_TOLERANCE, "alpha1")


@functools.lru_cache(maxsize=64)
def _gauge_density(key: tuple, m: int, alpha: float) -> np.ndarray:
    """v u on the sub-cells, where u = 1 + alpha G(v u) at their centres."""
    cells = _cells(key, m)
    if abs(alpha) * _cell_eigenvalue(key, m, math.copysign(1.0, alpha)) >= 1.0:
        raise ValueError(f"alpha = {alpha} lies within the cell solver's resolution of alpha1: "
                         f"its {m}^d sub-cell gauge is already infinite")
    try:
        u = _solve(lambda w: w - alpha * cells.gv(w), np.ones(cells.values.size))
    except ValueError as exc:
        raise ValueError(f"the cell gauge at alpha = {alpha}: {exc}") from exc
    return cells.values * u.reshape(cells.values.shape)


def _cell_gauge(x, v: Potential, alpha: float) -> float:
    """u(x) = 1 + alpha G(v u)(x) for a tabulated v, extrapolated in the sub-cells."""
    key = _cell_key(v)
    x = np.asarray(x, dtype=float).reshape(v.dim)
    values = [1.0 + alpha * _cells(key, m).at(x, _gauge_density(key, m, alpha))
              for m in _subcells(key)]
    return _checked(_extrapolate(values), CELL_MGF_TOLERANCE, f"the mgf at {alpha}")


# -- the radial Bessel basis --------------------------------------------------
#
# On a band where v = h, channel l of the radial equations of the gauge and
# of Kac's resolvent (below) reads
#   w'' + (d-1)/r w' - l (l + d - 2) / r^2 w + q w = 0,  q = 2 (alpha h - lambda),
# solved in closed form on an array of complex q: the resolvent's grid of
# (alpha, lambda), or one real alpha of the gauge.  The solution regular at 0
# is carried outward as (value, slope, log scale) by a 2 x 2 solve at each
# band edge.

# Re kappa r from which ``_regular`` reads 0F1 as a scaled I: 0F1 itself
# overflows from about 700.
_SCALED = 50.0


def _band_basis(d: int, q, a: float, r: float, l: int = 0):
    """Channel l's two solutions on a band of constant q = -kappa^2 from a > 0, at radius r.

    They are r^-nu I_(nu+l)(kappa r) and r^-nu K_(nu+l)(kappa r), nu = d/2 - 1
    and Re kappa >= 0; J and Y are the case of imaginary kappa (q > 0), up to
    constant factors, and q = 0 takes r^l and r^(2-d-l).  Returns ((psi1,
    psi2), (dpsi1, dpsi2), growth) on an array q, growth = Re kappa (r - a):
    psi1 e^(growth) and psi2 e^(-growth) are constant multiples of the two,
    each psi at most the size of its exponentially scaled Bessel function,
    and psi2 keeps the phase of e^(-kappa (r - a)).
    """
    nu = d / 2.0 - 1.0
    k = np.sqrt(-q)
    flat = k == 0.0
    k = np.where(flat, 1.0, k)  # a finite stand-in where the powers of r are set below
    z = k * r
    p = r**-nu
    turn = np.exp(-1j * k.imag * (r - a))
    i0, i1 = special.ive(nu + l, z), special.ive(nu + l + 1.0, z)
    k0, k1 = special.kve(nu + l, z) * turn, special.kve(nu + l + 1.0, z) * turn
    psi = (p * i0, p * k0)
    dpsi = (p * (k * i1 + l / r * i0), p * (l / r * k0 - k * k1))
    growth = k.real * (r - a)
    if flat.any():
        powers = (l, 2.0 - d - l)
        psi = tuple(np.where(flat, r**e, f) for e, f in zip(powers, psi))
        dpsi = tuple(np.where(flat, e * r ** (e - 1.0), f) for e, f in zip(powers, dpsi))
        growth = np.where(flat, 0.0, growth)
    return psi, dpsi, growth


def _regular(d: int, q, r: float, l: int = 0):
    """(w, w', log scale) of channel l's solution regular at 0, on a band from 0.

    w = r^l 0F1(; b; -q r^2 / 4), b = nu + l + 1, on an array q, with r^l in
    the log scale; it needs r > 0 when l > 0.  Where Re kappa r >= _SCALED,
    0F1 is Gamma(b) (2 / kappa r)^(b-1) I_(b-1)(kappa r) with e^(Re kappa r)
    in the log scale, so a band that alpha v makes steeply repulsive stays
    finite.
    """
    nu = d / 2.0 - 1.0
    if r == 0.0:
        return np.ones(q.shape, complex), np.zeros(q.shape, complex), 0.0
    b = nu + l + 1.0
    z = np.sqrt(-q) * r
    big = z.real >= _SCALED
    c = np.where(big, 0.0, -0.25 * q * r * r)  # big elements are set below
    w = special.hyp0f1(b, c)
    dw = 2.0 * c / r / b * special.hyp0f1(b + 1.0, c)
    log_scale = l * math.log(r)
    if big.any():
        zb = z[big]
        pre = np.exp(special.gammaln(b) + (b - 1.0) * np.log(2.0 / zb))
        w[big] = pre * special.ive(b - 1.0, zb)
        dw[big] = zb / r * pre * special.ive(b, zb)
        log_scale = log_scale + np.where(big, z.real, 0.0)
    return w, l / r * w + dw, log_scale


def _split(d: int, q, a: float, state, l: int = 0):
    """Coefficients (c1, c2) of ``state`` = (w, w', L) at a in the band basis from a."""
    f, g, _ = state
    (p1, p2), (dp1, dp2), _ = _band_basis(d, q, a, a, l)
    det = p1 * dp2 - p2 * dp1
    return (f * dp2 - g * p2) / det, (p1 * g - dp1 * f) / det


def _continue(d: int, q, a: float, state, r: float, l: int = 0):
    """(w, w', log scale) at r of the solution with ``state`` = (w, w', L) at a > 0; r < a too."""
    c1, c2 = _split(d, q, a, state, l)
    (p1, p2), (dp1, dp2), growth = _band_basis(d, q, a, r, l)
    size = np.abs(growth)
    up, down = np.exp(growth - size), np.exp(-growth - size)  # the smaller underflows quietly
    return c1 * p1 * up + c2 * p2 * down, c1 * dp1 * up + c2 * dp2 * down, state[2] + size


def _outward(d: int, bands, qs, radii, l: int):
    """States (w, w', L) of channel l's regular solution at increasing radii <= R."""
    out = []
    state, band = None, 0
    for r in radii:
        while r > bands[band][1]:
            lo, hi, _ = bands[band]
            state = _regular(d, qs[band], hi, l) if state is None else \
                _continue(d, qs[band], lo, state, hi, l)
            band += 1
        lo = bands[band][0]
        out.append(_regular(d, qs[band], r, l) if state is None else
                   _continue(d, qs[band], lo, state, r, l))
    return out


# -- infinite-horizon mgf -----------------------------------------------------
#
# u(r) = E_r exp(alpha Y) is the gauge of a radial v: it solves
# u'' + (d-1)/r u' + 2 alpha v u = 0, is regular at 0 and tends to 1 at
# infinity, channel 0 of the basis above at lambda = 0.  One real alpha is a
# one-element q = 2 alpha h per band; the regular solution w is real, and
# its imaginary parts are rounding.  u = w / D with D = w(R) + R w'(R) /
# (d - 2); outside the support u = 1 + (w(R) / D - 1) (R / r)^(d-2).

# Declared relative error of ``mgf_one_sided`` inside its interval of
# finiteness; 1/D magnifies rounding toward its ends.  Measured: the d = 3
# closed forms agree to 1.5e-15 for |alpha| up to alpha1 / 2 and to 2.7e-14
# up to 0.99 alpha1, and a 40-digit Taylor-series solve of the ODE to
# 4.2e-13 on eight radial potentials in d = 3 to 6, 426 values at up to
# 0.99 of either end, inside, on and outside the support (the largest next
# to alpha1- of a d = 5 step with a band of height 0); a margin of over 20.
MGF_TOLERANCE = 1e-11
# Steps per interior phase pi in the scan for the first zero of D.  By WKB
# consecutive zeros of D lie about one phase pi apart, so a step of pi/8 does
# not pass over a pair of them (a heuristic: near-degenerate zeros of wells
# split by a barrier could be closer).
_ALPHA1_SCAN = 8.0


def _radial_key(v: Potential) -> tuple:
    """(d, bands): everything the gauge reads from a radial v, hashable."""
    if not v.is_radial:
        raise ValueError("the exact one-sided mgf needs a radial potential")
    if v.dim < 3:
        raise ValueError("the infinite-horizon mgf requires d >= 3")
    return v.dim, tuple(v.bands())


def _gauge_states(key: tuple, alpha: float, radii) -> list:
    """Real parts of the regular solution's states (w, w', L) at increasing radii <= R."""
    d, bands = key
    qs = [np.array([2.0 * alpha * h], complex) for _, _, h in bands]
    return [tuple(float(np.ravel(part)[0].real) for part in state)
            for state in _outward(d, bands, qs, radii, 0)]


def _denominator(key: tuple, alpha: float) -> float:
    """D(alpha) = w(R) + R w'(R) / (d - 2), up to a positive factor."""
    d, bands = key
    radius = bands[-1][1]
    f, g, _ = _gauge_states(key, alpha, [radius])[0]
    return f + radius * g / (d - 2.0)


@functools.lru_cache(maxsize=256)
def _alpha1(key: tuple, sign: float) -> float:
    """The first zero of D(sign * beta), beta > 0; inf when sign * v has no positive part.

    Khas'minskii's bound 1 / sup G(v+) = (d - 2) / sum h (hi^2 - lo^2), the
    centre value of the Green potential of the positive part, is where the
    scan starts: D > 0 below it.  The scan then steps sqrt(beta) by a
    fraction of the phase pi over the interior phase int sqrt(2 h+) dr, and
    bisection narrows the first bracket to adjacent floats.  The result is
    its upper end, the smallest beta found with D <= 0.  (Bisection keeps
    scipy.optimize, and its import time and memory, out of the package.)
    """
    d, bands = key
    pos = [(lo, hi, max(sign * h, 0.0)) for lo, hi, h in bands]
    mass = sum(h * (hi * hi - lo * lo) for lo, hi, h in pos)
    if mass == 0.0:
        return math.inf
    phase = sum(math.sqrt(2.0 * h) * (hi - lo) for lo, hi, h in pos)
    step = math.pi / (_ALPHA1_SCAN * phase)
    kappa = math.sqrt((d - 2.0) / mass)

    def dfun(beta):
        return _denominator(key, sign * beta)

    lo_beta = 0.0
    if dfun(kappa * kappa) > 0.0:
        lo_beta = kappa * kappa
        for _ in range(100_000):
            kappa += step
            if dfun(kappa * kappa) <= 0.0:
                break
            lo_beta = kappa * kappa
        else:
            raise RuntimeError("no zero of the gauge denominator found")
    hi_beta = kappa * kappa
    while lo_beta < 0.5 * (lo_beta + hi_beta) < hi_beta:
        mid = 0.5 * (lo_beta + hi_beta)
        if dfun(mid) > 0.0:
            lo_beta = mid
        else:
            hi_beta = mid
    return hi_beta


def alpha1_interval(v: Potential) -> tuple:
    """(alpha1-, alpha1+): the open interval of alpha on which E_x exp(alpha Y) is finite.

    Y is the infinite-horizon integral of v, d >= 3.  For a radial v the
    ends are the first zeros of D on each side of 0 (the gauge theorem;
    Chung & Zhao 1995), and for a tabulated v the reciprocals of the extreme
    eigenvalues of G v on its cells; a side on which alpha v has no positive
    part is unbounded.  The interval does not depend on the start point.
    """
    if not v.is_radial:
        key = _cell_key(v)
        return -_cell_alpha1(key, -1.0), _cell_alpha1(key, 1.0)
    key = _radial_key(v)
    return -_alpha1(key, -1.0), _alpha1(key, 1.0)


def mgf_tolerance(v: Potential) -> float:
    """Declared relative error of ``mgf_one_sided`` for v inside its interval."""
    return MGF_TOLERANCE if v.is_radial else CELL_MGF_TOLERANCE


def mgf_one_sided(x, v: Potential, alpha: float) -> float:
    """E_x exp(alpha int_0^inf v(W_s) ds) for v in d >= 3; inf outside its interval.

    The deterministic gauge: for a radial v the Bessel solution above, exact
    up to ``MGF_TOLERANCE`` relative (1 / cos(sqrt(2 alpha)) at the centre
    of the d = 3 unit ball); for a tabulated v the cell solve, within
    ``CELL_MGF_TOLERANCE``.  Returns math.inf for alpha outside
    ``alpha1_interval(v)``.  A tabulated v raises ValueError for an alpha
    inside the interval at which a sub-cell gauge is already infinite.
    """
    if v.dim < 3:
        raise ValueError("the infinite-horizon mgf requires d >= 3")
    alpha = float(alpha)
    if alpha == 0.0 or v.is_zero:
        return 1.0
    lo, hi = alpha1_interval(v)
    if not lo < alpha < hi:
        return math.inf
    if not v.is_radial:
        return _cell_gauge(x, v, alpha)
    key = _radial_key(v)
    d, bands = key
    radius = bands[-1][1]
    rho = float(np.linalg.norm(np.asarray(x, dtype=float).reshape(d) - v.center))
    inside = rho < radius
    *at_rho, (f_r, g_r, scale_r) = _gauge_states(key, alpha, [rho, radius] if inside else [radius])
    dn = f_r + radius * g_r / (d - 2.0)
    if not inside:
        return 1.0 + (f_r / dn - 1.0) * (radius / rho) ** (d - 2.0)
    w, _, scale = at_rho[0]
    return w / dn * math.exp(scale - scale_r)


# -- radial bridge moments: Kac's resolvent ------------------------------------
#
# The Laplace transform in t of the Feynman-Kac kernel,
# G(lambda; x, y) = int_0^inf e^(-lambda t) E_x[e^(alpha Z(t)); X_t in dy] / dy dt,
# solves (lambda - Delta / 2 - alpha v) G = delta_x (Kac 1949).  For a radial v
# it splits into spherical-harmonic channels,
#   G = sum_l (l + nu) / (nu |S^(d-1)|) C_l^(nu)(cos gamma) g_l(r_x, r_y),
# gamma the angle between x - c and y - c, and g_l(r, s) = -2 u(r) U(s) / W for
# r <= s, where u is channel l's radial solution regular at 0, U the one
# decaying at infinity and W = r^(d-1) (u U' - u' U).  On a band of height h
# both combine r^-nu I_(nu+l)(kappa r) and r^-nu K_(nu+l)(kappa r) with
# kappa^2 = 2 (lambda - alpha h), the radial Bessel basis above on the grid
# of complex q = -kappa^2.  The scattered part
# G - G^0 inverts on Talbot's contour (Trefethen, Weideman & Schmelzer 2006)
# to p(t, x, y) (E e^(alpha Z(t)) - 1), and E Z(t)^k is k! times its alpha^k
# coefficient, a trapezoid Cauchy integral over |alpha| = rho (Lyness & Moler
# 1967).  For |alpha| below alpha1 of |v| the kernel is bounded by that of
# |alpha| |v|, whose bridge mgf stays bounded in t, so G has no singularity
# in Re lambda > 0; the contour wraps the cut lambda <= 0 of kappa_0.  Free
# motion inverts the resolvent applied to 1 on the same grid (``_Projection``).

# Talbot nodes: 24 while the scattered wave's saddle point A = D^2 / (2 t)
# lies left of the contour's crossing; farther out the contour is stretched
# to cross at A and given about 15 sqrt(A) nodes, up to _TALBOT_CAP.  D is
# the larger of |y - x| and the ends' radial distance outside the support
# (with the latter alone, ends 1 apart inside the unit ball read E Z(t)^2 =
# -1.1e5 at t = 0.01, where it is t^2).  Alpha nodes on the circle, and its
# radius as a fraction of alpha1 of |v|: at half of alpha1 the alias of
# order k + 32 moved long-horizon moments by 4e-9.  A channel is negligible
# when its alpha^2 and alpha^3 terms are below _CHANNEL_TOL of the sum,
# before its Gegenbauer factor, twice in a row; no geometry may need more
# than _CHANNEL_CAP channels.  _ROUNDING is the relative error of one term
# of the final sums, which their condition number multiplies: it overstates
# the measured errors about tenfold on the 24-node contour, and read k = 3
# 3x low at A = 100.  _NEAR_ZERO * t^-1 is the lambda of a column whose
# value approximates the transform at 0.  Endpoints with |kappa| |y - x|
# below _COINCIDENT count as one point.
_TALBOT_NODES = 24
_TALBOT_CAP = 128
_CAUCHY_NODES = 32
_CAUCHY_RADIUS = 0.25
_CHANNEL_TOL = 1e-13
_CHANNEL_CAP = 400
_ROUNDING = 1e-13
_NEAR_ZERO = 1e-2
_COINCIDENT = 1e-8
_LOG_RANGE = 700.0  # e^700 and e^-700 leave room inside the float range


def _talbot_rule(t: float, reach: float):
    """Upper-half nodes lambda_j and weights w_j: f(t) = 2 Re sum_j w_j F(lambda_j) for real f.

    The Trefethen-Weideman-Schmelzer contour, stretched to cross the real
    axis at the saddle point ``reach`` / t when it lies farther out.
    """
    n = _TALBOT_NODES
    if reach > 0.1709 * n:
        n = min(_TALBOT_CAP, 2 * math.ceil(7.5 * math.sqrt(reach)))
    stretch = max(1.0, reach / (0.1709 * n))
    theta = (np.arange(n // 2) + 0.5) * (2.0 * math.pi / n)
    b = 0.6407 * theta
    z = stretch * n * (0.5017 * theta / np.tan(b) - 0.6122 + 0.2645j * theta)
    dz = stretch * n * (0.5017 / np.tan(b) - 0.5017 * b / np.sin(b) ** 2 + 0.2645j)
    with np.errstate(over="ignore", invalid="ignore"):  # past e^709 the caller's estimate refuses
        return z / t, np.exp(z) * dz / (1j * n * t)


def _inward(d: int, bands, qs, q0, r: float, l: int):
    """State of channel l's decaying solution at r <= R, from r^-nu K(kappa_0 r) at R."""
    radius = bands[-1][1]
    (_, p2), (_, dp2), _ = _band_basis(d, q0, radius, radius, l)
    state = (p2, dp2, 0.0)
    for (lo, hi, _), q in zip(reversed(bands), reversed(qs)):
        if r >= hi:
            break
        state = _continue(d, q, hi, state, max(r, lo), l)
    return state


def _scaled_ik(d: int, k, r: float, l: int):
    """(r^-nu I e^(-Re kappa r), r^-nu K e^(kappa r)) of order nu + l; channel 0's I at r = 0."""
    nu = d / 2.0 - 1.0
    if r == 0.0:
        return (0.5 * k) ** nu / math.gamma(nu + 1.0), None
    return r**-nu * special.ive(nu + l, k * r), r**-nu * special.kve(nu + l, k * r)


def _free_difference(d: int, k, k0, gap: float):
    """|S^(d-1)| (G_kappa - G_kappa0) at distance gap, and a bound on its size.

    Below |kappa| gap = _COINCIDENT the points count as one: the centre
    values less their terms polynomial in kappa^2, which diverge in d >= 4
    but invert to distributions at t = 0, and are linear in alpha in
    d <= 5, so they change no moment k >= 2.  Above it the two terms grow
    like gap^(2-d) and cancel; the bound carries the rounding of that
    cancellation in units of _ROUNDING, so the caller's error estimate sees it.
    """
    nu = d / 2.0 - 1.0
    if gap * max(np.abs(k).max(), np.abs(k0).max()) < _COINCIDENT:
        if d % 2:
            part = [-math.pi / math.sin(nu * math.pi) * (0.5 * q) ** (2 * nu) for q in (k, k0)]
        else:
            sign = 1.0 if int(nu) % 2 else -1.0
            part = [2.0 * sign * (0.5 * q) ** (2 * nu) * np.log(0.5 * q) for q in (k, k0)]
        diff = (part[0] - part[1]) / math.gamma(nu + 1.0) ** 2
        return diff, np.abs(diff)
    part = [2.0 ** (1.0 - nu) / math.gamma(nu + 1.0) * gap**-nu *
            q**nu * special.kve(nu, q * gap) * np.exp(-q * gap) for q in (k, k0)]
    diff = part[0] - part[1]
    return diff, np.abs(diff) + np.finfo(float).eps / _ROUNDING * (np.abs(part[0]) + np.abs(part[1]))


def _band_of(bands, r: float) -> int:
    """Index of the band holding radius r; len(bands) outside the support."""
    return next((j for j, (_, hi, _) in enumerate(bands) if r <= hi), len(bands))


def _scattered_channel(d: int, bands, qs, q0, r: float, s: float, l: int):
    """Channel l of G - G^0 at radii r <= s, on arrays of q per band (qs) and outside (q0).

    With both radii in one band of kappa it is the channel of G - G_kappa,
    reflected waves only, which converges geometrically in l; the caller
    adds G_kappa - G^0 (``_free_difference``), which has no channel sum.
    """
    nu = d / 2.0 - 1.0
    radius = bands[-1][1]
    k0 = np.sqrt(-q0)
    j = _band_of(bands, r)
    if j == _band_of(bands, s):
        # u = c1 I e^(-Re k a_u) + c2 K e^(k a_u) and U = d1 I e^(-Re k a_U)
        # + d2 K e^(k a_U) in the band; every term below is scaled by
        # e^(k a_U - Re k a_u), so each exponential is at most 1 in size
        if j == len(bands):
            q, a_u, a_ext = q0, radius, radius
            c1, c2 = _split(d, q0, radius, _outward(d, bands, qs, [radius], l)[0], l)
            d1, d2 = 0.0, 1.0
        else:
            lo, a_ext, _ = bands[j]
            q, a_u = qs[j], lo
            c1, c2 = (1.0, 0.0) if j == 0 else \
                _split(d, q, lo, _outward(d, bands, qs, [lo], l)[0], l)
            d1, d2 = _split(d, q, a_ext, _inward(d, bands, qs, q0, a_ext, l), l)
        k = np.sqrt(-q)
        both = k + k.real
        i_r, k_r = _scaled_ik(d, k, r, l)
        i_s, k_s = _scaled_ik(d, k, s, l)
        out = c1 * d1 * i_r * i_s * np.exp(k.real * (r + s - a_ext) - k * a_ext)
        if j > 0:  # the innermost band has c2 = 0, and K is infinite at r = 0
            out = out + c2 * d1 * np.exp(both * (a_u - a_ext)) * (
                k_r * i_s * np.exp(k.real * s - k * r) + i_r * k_s * np.exp(k.real * r - k * s))
            out = out + c2 * d2 * k_r * k_s * np.exp(both * a_u - k * (r + s))
        return 2.0 * out / (c1 * d2 - c2 * d1 * np.exp(both * (a_u - a_ext)))
    m = min(s, radius)
    u_r, u_m = _outward(d, bands, qs, [r, m], l)
    big = _inward(d, bands, qs, q0, m, l)
    if s > radius:
        (_, p2), _, growth = _band_basis(d, q0, radius, s, l)
        far, far_scale = p2, -growth
    else:
        far, far_scale = big[0], big[2]
    wronskian = m ** (d - 1.0) * (u_m[0] * big[1] - u_m[1] * big[0])
    scale = np.exp(u_r[2] - u_m[2] + far_scale - big[2])
    i_r, _ = _scaled_ik(d, k0, r, l)
    _, k_s = _scaled_ik(d, k0, s, l)
    free = 2.0 * i_r * k_s * np.exp(k0.real * r - k0 * s)
    return -2.0 * u_r[0] * far * scale / wronskian - free


class _Projection:
    """Talbot's nodes in lambda and a circle of alphas, and sums of F(lambda; alpha) over them.

    ``qs`` and ``q0`` are q = 2 (alpha h - lambda) on each band and outside
    the support, flat over the grid.  ``add`` sums values of F, and
    ``moments`` reads off the alpha^k coefficients of F's inverse at t.
    """

    def __init__(self, key: tuple, t: float, reach: float):
        d, bands = key
        self.rho = _CAUCHY_RADIUS * _alpha1((d, tuple((lo, hi, abs(h)) for lo, hi, h in bands)),
                                            1.0)
        self.alpha = self.rho * np.exp(2j * math.pi * np.arange(_CAUCHY_NODES) / _CAUCHY_NODES)
        lam, w = _talbot_rule(t, reach)
        # one more column at lambda = _NEAR_ZERO / t: a constant in lambda inverts
        # to 0 at t > 0, so the sums may subtract it, which removes the transform's
        # value at 0 that the long-horizon sums cancel
        self.lam = np.append(lam, _NEAR_ZERO / t)
        self.qs = [(2.0 * h * self.alpha[:, None] - 2.0 * self.lam[None, :]).ravel()
                   for _, _, h in bands]
        self.q0 = np.broadcast_to(-2.0 * self.lam,
                                  (self.alpha.size, self.lam.size)).ravel().astype(complex)
        # row k - 1 sums 2 (alpha / rho)^-k w_j over the grid: rho^k
        # _CAUCHY_NODES times the alpha^k coefficient, k = 1, 2, 3
        unit = np.exp(-2j * math.pi * np.arange(_CAUCHY_NODES) / _CAUCHY_NODES)
        self.project = np.stack([np.outer(unit**k, 2.0 * w).ravel() for k in (1, 2, 3)])
        # [plain sums, sums less the lambda -> 0 column]; ``lost`` is what the
        # rule makes of that column, a constant whose exact inverse is 0
        self.total, self.spread = np.zeros((2, 3)), np.zeros((2, 3))
        self.lost = np.zeros(3)
        self.edge = np.stack([unit**k for k in (1, 2, 3)]) * (2.0 * w.sum())

    def add(self, values, weight, size=None):
        """Add weight times the sums of ``values``; returns the unweighted sums.

        ``size`` bounds |values| where they are differences of larger terms.
        """
        values = values.reshape(self.alpha.size, self.lam.size)
        # any constant will do: 0 where K of high order overflows near lambda = 0
        values[:, -1] = np.where(np.isfinite(values[:, -1]), values[:, -1], 0.0)
        size = np.abs(values) if size is None else size.reshape(values.shape)
        size[:, -1] = np.where(np.isfinite(size[:, -1]), size[:, -1], 0.0)
        sums = []
        for i, grid in enumerate((values[:, :-1], values[:, :-1] - values[:, -1:])):
            sums.append((self.project @ grid.ravel()).real)
            self.total[i] += weight * sums[-1]
            bound = size[:, :-1] + i * size[:, -1:]
            self.spread[i] += abs(weight) * (np.abs(self.project) @ bound.ravel())
        self.lost[:] += weight * (self.edge @ values[:, -1]).real
        return np.array(sums)

    def moments(self, scale: float) -> tuple:
        """((E Z, E Z^2, E Z^3), errors) from the row of sums with the smaller k = 2, 3 errors.

        An error is _ROUNDING times the condition number of its sum, plus
        what the rule makes of a subtracted constant, relative.
        """
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero sum has no accuracy
            errors = (_ROUNDING * self.spread + [np.zeros(3), np.abs(self.lost)]) / \
                np.abs(self.total)
        best = int(np.argmin(np.max(errors[:, 1:], axis=1)))
        return (tuple(math.factorial(k) * self.total[best, k - 1] / self.rho**k * scale
                      for k in (1, 2, 3)), tuple(errors[best]))


@functools.lru_cache(maxsize=256)
def _resolvent_moments(key: tuple, r: float, s: float, gap: float, t: float):
    """((E Z, E Z^2, E Z^3), errors) for the bridge of length t between radii r <= s.

    gap = |y - x| fixes the angle between the endpoints, seen from the
    centre; it is exactly 0, and the angle exactly 0, when x = y.  E Z is
    the cross-check against the exact k = 1 time rule of ``quadrature``.
    """
    d, bands = key
    # p(t, x, y) = (2 pi t)^(-d/2) e^(-gap^2 / 2t) in logs: where it may leave
    # the float range (t = 1e-300, or ends far apart for so short a horizon),
    # the sums cannot carry p E Z^k, and the errors are infinite
    logs = (-d / 2.0 * math.log(2.0 * math.pi * t), -gap * gap / (2.0 * t))
    if not abs(logs[0]) + abs(logs[1]) < _LOG_RANGE:
        return (math.nan,) * 3, (math.inf,) * 3
    nu = d / 2.0 - 1.0
    radius = bands[-1][1]
    outside = max(r - radius, 0.0) + max(s - radius, 0.0)
    grid = _Projection(key, t, max(gap, outside) ** 2 / (2.0 * t))
    qs, q0 = grid.qs, grid.q0
    cos_gamma = 1.0 if r == 0.0 else \
        min(max((r * r + s * s - gap * gap) / (2.0 * r * s), -1.0), 1.0)
    j = _band_of(bands, r)
    if j == _band_of(bands, s) and j < len(bands) and bands[j][2] != 0.0:
        local, size = _free_difference(d, np.sqrt(-qs[j]), np.sqrt(-q0), gap)
        grid.add(local, 1.0, size)
    quiet = 0
    for l in range(1 if r == 0.0 else _CHANNEL_CAP):  # a centre endpoint sees channel 0
        size = (l + nu) / nu
        with np.errstate(over="ignore", invalid="ignore"):
            sums = grid.add(_scattered_channel(d, bands, qs, q0, r, s, l),
                            size * special.eval_gegenbauer(l, nu, cos_gamma))
        if not np.all(np.isfinite(grid.total)):  # K of order nu + l overflows its scale
            break
        # the channel's size before its Gegenbauer factor: at most C_l^nu(1)
        bound = size * special.eval_gegenbauer(l, nu, 1.0) * np.abs(sums[:, 1:])
        quiet = quiet + 1 if np.all(bound <= _CHANNEL_TOL * np.abs(grid.total[:, 1:])) else 0
        if quiet == 2:
            break
    if quiet < 2 and r > 0.0:
        raise ValueError(f"the resolvent's channel sum for radii {r}, {s} did not "
                         f"settle within {l + 1} channels")
    # the channel weights' 1 / |S^(d-1)| and the bridge's 1 / p(t, x, y)
    density = (2.0 * math.pi * t) ** (-d / 2.0) * math.exp(logs[1])
    return grid.moments(1.0 / (sphere_area(d) * _CAUCHY_NODES * density))


@functools.lru_cache(maxsize=256)
def _free_resolvent_moments(key: tuple, r: float, t: float):
    """((E Y, E Y^2, E Y^3), errors) for free motion from radius r over [0, t].

    Kac's resolvent applied to 1: w = int_0^inf e^(-lambda t) E_r e^(alpha
    Y(t)) dt solves (lambda - Delta / 2 - alpha v) w = 1.  w is radial, so
    channel 0 carries it.  On band j, w = p_j + f with p_j = 1 / (lambda -
    alpha h_j), and 1 / lambda outside; f is homogeneous, its slope
    continuous and its value jumping by J = p_left - p_right at each band
    edge a.  With u regular at 0, U decaying at infinity and W = u U' - u' U,
    each jump adds -J u(r) U'(a) / W(a) for r <= a and -J u'(a) U(r) / W(a)
    for r > a: ratios of one solution that decay away from a, so no term
    cancels another's growth.  w - 1 / lambda inverts to E e^(alpha Y(t)) - 1.
    """
    d, bands = key
    radius = bands[-1][1]
    grid = _Projection(key, t, max(r - radius, 0.0) ** 2 / (2.0 * t))
    qs, q0 = grid.qs, grid.q0
    alpha, lam = grid.alpha[:, None], grid.lam[None, :]

    def jump(h_in, h_out):
        """1 / (lambda - alpha h_in) - 1 / (lambda - alpha h_out) on the grid, flat."""
        return (alpha * (h_in - h_out) / ((lam - alpha * h_in) * (lam - alpha * h_out))).ravel()

    heights, edges = [h for _, _, h in bands] + [0.0], [hi for _, hi, _ in bands]
    with np.errstate(over="ignore", invalid="ignore"):
        terms = [jump(heights[_band_of(bands, r)], 0.0)]
        if r > radius:
            (_, p2), (_, dp2), growth = _band_basis(d, q0, radius, r)
            big_r = (p2, dp2, -growth)
        else:  # U(r) is read only past an edge, so never at r = 0
            u_r = _outward(d, bands, qs, [r], 0)[0]
            big_r = _inward(d, bands, qs, q0, r, 0) if r > edges[0] else None
        for i, (a, u_a) in enumerate(zip(edges, _outward(d, bands, qs, edges, 0))):
            if heights[i] == heights[i + 1]:
                continue
            big_a = _inward(d, bands, qs, q0, a, 0)
            wronskian = u_a[0] * big_a[1] - u_a[1] * big_a[0]
            if r <= a:
                ratio = u_r[0] * big_a[1] * np.exp(u_r[2] - u_a[2])
            else:
                ratio = u_a[1] * big_r[0] * np.exp(big_r[2] - big_a[2])
            terms.append(-jump(heights[i], heights[i + 1]) * ratio / wronskian)
        grid.add(sum(terms), 1.0, sum(np.abs(term) for term in terms))
        return grid.moments(1.0 / _CAUCHY_NODES)


def resolvent_moments(x, y, t: float, v: Potential) -> tuple:
    """((E Z, E Z^2, E Z^3), errors) for the bridge from x to y over [0, t], or free motion.

    Kac's resolvent above, for a radial v in d >= 3; y None is free motion
    from x.  A bridge reads its endpoints only through their distances to
    the centre and their distance apart, so the result is symmetric under
    (x, y) <-> (y, x).  ``errors`` estimates each moment's relative error; a
    channel sum that does not settle raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    if y is None:
        return _free_resolvent_moments(_radial_key(v), float(np.linalg.norm(x - v.center)),
                                       float(t))
    y = np.asarray(y, dtype=float)
    n1, n2 = (float(np.linalg.norm(p - v.center)) for p in (x, y))
    return _resolvent_moments(_radial_key(v), min(n1, n2), max(n1, n2),
                              float(np.linalg.norm(y - x)), float(t))
