"""Operators solved in space: the Green potential, the gauge and Kac's resolvent.

The time-integrated transition density of transient Brownian motion
(d >= 3) is the Green kernel

    int_0^inf q(s; w) ds = Gamma(d/2 - 1) / (2 pi^(d/2)) |w|^(2-d),

and every operator here is an equation in space built on it:

* the Green potential G v, the expected total occupation integral, in
  closed form band by band for radial potentials and by cell quadrature
  for tabulated ones, with the occupation bound K1 = sup G|v|;
* the Green chain, Kac's moment formula m_k = k G(v m_(k-1)) for the
  infinite-horizon moments of a radial potential;
* the gauge u(x) = E_x exp(alpha Y) of a radial potential (Chung & Zhao
  1995), the solution of a radial ODE in closed form band by band in
  Bessel functions, with the interval of alpha on which it is finite;
* Kac's resolvent (Kac 1949), which carries the gauge's Bessel basis to
  complex kappa channel by channel and gives radial bridge moments
  k = 1, 2 and 3 once inverted in time.
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
    "cell_green_kernel",
    "green_potential_radial",
    "green_potential",
    "BoundsReport",
    "default_probes",
    "k1_bound",
    "panel_rule",
    "radial_rule",
    "green_chain",
    "MGF_TOLERANCE",
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


# -- the occupation bound K1 --------------------------------------------------

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

# -- radial rules and the Green chain -----------------------------------------

# Gauss-Legendre nodes per radial band panel; the declared tolerances of the
# infinite-horizon moments hold for this order.
_SPACE_NODES = 12

_LEG_CACHE: dict = {}


def _leggauss(m: int):
    if m not in _LEG_CACHE:
        _LEG_CACHE[m] = np.polynomial.legendre.leggauss(m)
    return _LEG_CACHE[m]


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


# -- infinite-horizon mgf -----------------------------------------------------
#
# u(r) = E_r exp(alpha Y) is the gauge of a radial v: it solves
# u'' + (d-1)/r u' + 2 alpha v u = 0, is regular at 0 and tends to 1 at
# infinity.  On a band of height h, with q = 2 alpha h and nu = d/2 - 1,
# the solutions are r^-nu J_nu, r^-nu Y_nu (q > 0), r^-nu I_nu, r^-nu K_nu
# (q < 0, exponentially scaled) and 1, r^(2-d) (q = 0).  The regular
# solution w is carried band by band as (value, slope, log scale) and
# u = w / D with D = w(R) + R w'(R) / (d - 2); outside the support
# u = 1 + (w(R) / D - 1) (R / r)^(d-2).

# Declared relative error of ``mgf_one_sided`` inside its interval of
# finiteness; 1/D magnifies rounding toward its ends.  Measured: the d = 3
# closed forms agree to 2e-15, and a 40-digit Taylor-series solve of the
# ODE to 7e-14 on eight radial potentials in d = 3 to 6, at up to 0.99 of
# either end, inside, on and outside the support; a margin of over 100.
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


def _band_basis(d: int, q, a: float, r: float, l: int = 0):
    """Two solutions on a band of constant q that starts at a > 0, at radius r.

    Returns ((psi1, psi2), (dpsi1, dpsi2), growth): the scaled solutions and
    their slopes, where the true solutions are psi1 e^(growth) and
    psi2 e^(-growth); growth is k (r - a) for q < 0 and 0 otherwise.

    A complex array q = -kappa^2 (the resolvent's bands) takes channel l:
    r^-nu I_(nu+l)(kappa r) and r^-nu K_(nu+l)(kappa r), Re kappa > 0, with
    growth Re kappa (r - a) and the phase of e^(-kappa (r - a)) kept in psi2.
    Real q is the gauge's channel 0.
    """
    nu = d / 2.0 - 1.0
    if np.iscomplexobj(q):
        k = np.sqrt(-q)
        z = k * r
        p = r**-nu
        turn = np.exp(-1j * k.imag * (r - a))
        i0, i1 = special.ive(nu + l, z), special.ive(nu + l + 1.0, z)
        k0, k1 = special.kve(nu + l, z) * turn, special.kve(nu + l + 1.0, z) * turn
        return ((p * i0, p * k0), (p * (k * i1 + l / r * i0), p * (l / r * k0 - k * k1)),
                k.real * (r - a))
    if q == 0.0:
        return (1.0, r ** (2.0 - d)), (0.0, (2.0 - d) * r ** (1.0 - d)), 0.0
    k = math.sqrt(abs(q))
    z = k * r
    p = r**-nu
    if q > 0.0:
        return ((p * special.jv(nu, z), p * special.yv(nu, z)),
                (-k * p * special.jv(nu + 1.0, z), -k * p * special.yv(nu + 1.0, z)), 0.0)
    return ((p * special.ive(nu, z), p * special.kve(nu, z)),
            (k * p * special.ive(nu + 1.0, z), -k * p * special.kve(nu + 1.0, z)),
            k * (r - a))


def _regular(d: int, q, r: float, l: int = 0):
    """(w, w', log scale) of the solution with w(0) = 1, w'(0) = 0 on a band from 0.

    A complex array q takes channel l, w = r^l 0F1(; nu + l + 1; -q r^2 / 4),
    with r^l in the log scale; it needs r > 0 when l > 0.
    """
    nu = d / 2.0 - 1.0
    if np.iscomplexobj(q):
        if r == 0.0:
            return np.ones(q.shape, complex), np.zeros(q.shape, complex), 0.0
        c = -0.25 * q * r * r
        w = special.hyp0f1(nu + l + 1.0, c)
        dw = l / r * w + 2.0 * c / r / (nu + l + 1.0) * special.hyp0f1(nu + l + 2.0, c)
        return w, dw, l * math.log(r)
    if q == 0.0 or r == 0.0:
        return 1.0, 0.0, 0.0
    z = math.sqrt(abs(q)) * r
    if q > 0.0 or z < 50.0:
        c = -0.25 * q * r * r  # w = 0F1(; nu + 1; c), w' = 2 c / r / (nu + 1) 0F1(; nu + 2; c)
        return (float(special.hyp0f1(nu + 1.0, c)),
                2.0 * c / r / (nu + 1.0) * float(special.hyp0f1(nu + 2.0, c)), 0.0)
    # Gamma(nu + 1) (2/z)^nu I_nu(z), with e^z in the log scale
    pre = math.exp(special.gammaln(nu + 1.0) + nu * math.log(2.0 / z))
    return pre * special.ive(nu, z), z / r * pre * special.ive(nu + 1.0, z), z


def _split(d: int, q, a: float, state, l: int = 0):
    """Coefficients (c1, c2) of ``state`` = (w, w', L) at a in the band basis from a."""
    f, g, _ = state
    (p1, p2), (dp1, dp2), _ = _band_basis(d, q, a, a, l)
    det = p1 * dp2 - p2 * dp1
    return (f * dp2 - g * p2) / det, (p1 * g - dp1 * f) / det


def _continue(d: int, q, a: float, state, r: float, l: int = 0):
    """(w, w', log scale) at r of the solution with ``state`` = (w, w', L) at a > 0.

    Complex q (channel l) may also carry inward, r < a.
    """
    log_scale = state[2]
    c1, c2 = _split(d, q, a, state, l)
    (p1, p2), (dp1, dp2), growth = _band_basis(d, q, a, r, l)
    if np.iscomplexobj(q):
        size = np.abs(growth)
        up, down = np.exp(growth - size), np.exp(-growth - size)
        return (c1 * p1 * up + c2 * p2 * down, c1 * dp1 * up + c2 * dp2 * down,
                log_scale + size)
    if growth == 0.0:
        return c1 * p1 + c2 * p2, c1 * dp1 + c2 * dp2, log_scale
    if c1 == 0.0:  # only the decaying solution: its own scale
        return c2 * p2, c2 * dp2, log_scale - growth
    decay = math.exp(-2.0 * growth)  # underflows to 0 without a warning
    return (c1 * p1 + c2 * p2 * decay, c1 * dp1 + c2 * dp2 * decay, log_scale + growth)


@functools.lru_cache(maxsize=1024)
def _shoot(key: tuple, alpha: float) -> tuple:
    """Per band, (lo, hi, q, state at lo), and the state at the support radius."""
    d, bands = key
    out = []
    state = None
    for lo, hi, h in bands:
        q = 2.0 * alpha * h
        out.append((lo, hi, q, state))
        state = _regular(d, q, hi) if state is None else _continue(d, q, lo, state, hi)
    return tuple(out), state


def _denominator(key: tuple, alpha: float) -> float:
    """D(alpha) = w(R) + R w'(R) / (d - 2), up to a positive factor."""
    d, bands = key
    f, g, _ = _shoot(key, alpha)[1]
    return f + bands[-1][1] * g / (d - 2.0)


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

    Y is the infinite-horizon integral of a radial v, d >= 3.  The ends are
    the first zeros of D on each side of 0 (the gauge theorem; Chung & Zhao
    1995); a side on which alpha v has no positive part is unbounded.  The
    interval does not depend on the start point.
    """
    key = _radial_key(v)
    return -_alpha1(key, -1.0), _alpha1(key, 1.0)


def mgf_one_sided(x, v: Potential, alpha: float) -> float:
    """E_x exp(alpha int_0^inf v(W_s) ds) for a radial v in d >= 3; inf outside its interval.

    The deterministic gauge (see above), exact up to ``MGF_TOLERANCE``
    relative: 1 / cos(sqrt(2 alpha)) at the centre of the d = 3 unit ball.
    Returns math.inf for alpha outside ``alpha1_interval(v)``.
    """
    key = _radial_key(v)
    alpha = float(alpha)
    if alpha == 0.0 or v.is_zero:
        return 1.0
    lo, hi = alpha1_interval(v)
    if not lo < alpha < hi:
        return math.inf
    d, bands = key
    per_band, (f_r, _, scale_r) = _shoot(key, alpha)
    radius = bands[-1][1]
    dn = _denominator(key, alpha)
    rho = float(np.linalg.norm(np.asarray(x, dtype=float).reshape(d) - v.center))
    if rho >= radius:
        return 1.0 + (f_r / dn - 1.0) * (radius / rho) ** (d - 2.0)
    for lo_b, hi_b, q, state in per_band:
        if rho <= hi_b:
            break
    w, _, scale = _regular(d, q, rho) if state is None else _continue(d, q, lo_b, state, rho)
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
# kappa^2 = 2 (lambda - alpha h): the gauge's basis at complex q = -kappa^2,
# carried across band edges by the same 2 x 2 solve.  The scattered part
# G - G^0 inverts on Talbot's contour (Trefethen, Weideman & Schmelzer 2006)
# to p(t, x, y) (E e^(alpha Z(t)) - 1), and E Z(t)^k is k! times its alpha^k
# coefficient, a trapezoid Cauchy integral over |alpha| = rho (Lyness & Moler
# 1967).  For |alpha| below alpha1 of |v| the kernel is bounded by that of
# |alpha| |v|, whose bridge mgf stays bounded in t, so G has no singularity
# in Re lambda > 0; the contour wraps the cut lambda <= 0 of kappa_0.

# Talbot nodes: 24 while the scattered wave's saddle point A = D^2 / (2 t)
# (D the endpoints' radial distance outside the support) lies left of the
# contour's crossing; farther out the contour is stretched to cross at A and
# given about 15 sqrt(A) nodes, up to _TALBOT_CAP.  Alpha nodes on the circle,
# and its radius as a fraction of alpha1 of |v|: at half of alpha1 the
# alias of order k + 32 moved long-horizon moments by 4e-9.  A channel is
# negligible when its alpha^2 and alpha^3 terms are below _CHANNEL_TOL of
# the sum, before its Gegenbauer factor, twice in a row; no geometry may
# need more than _CHANNEL_CAP channels.  _ROUNDING is the relative error of
# one term of the final sums, which their condition number multiplies: it
# overstates the measured errors about tenfold.  _NEAR_ZERO * t^-1 is the
# lambda of a column whose value approximates the transform at 0.
# Endpoints with |kappa| |y - x| below _COINCIDENT count as one point.
_TALBOT_NODES = 24
_TALBOT_CAP = 128
_CAUCHY_NODES = 32
_CAUCHY_RADIUS = 0.25
_CHANNEL_TOL = 1e-13
_CHANNEL_CAP = 400
_ROUNDING = 1e-13
_NEAR_ZERO = 1e-2
_COINCIDENT = 1e-8


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
    return z / t, np.exp(z) * dz / (1j * n * t)


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


@functools.lru_cache(maxsize=256)
def _resolvent_moments(key: tuple, r: float, s: float, gap: float, t: float):
    """((E Z, E Z^2, E Z^3), channels, errors) for the bridge of length t between radii r <= s.

    gap = |y - x| fixes the angle between the endpoints, seen from the
    centre; it is exactly 0, and the angle exactly 0, when x = y.  ``errors``
    estimates each moment's relative error: _ROUNDING times the condition
    number of its sum over channels, nodes and alphas, and what the rule
    makes of a subtracted constant.  E Z is the cross-check against the
    exact k = 1 time rule of ``quadrature.moment_bridge``.
    """
    d, bands = key
    nu = d / 2.0 - 1.0
    radius = bands[-1][1]
    rho = _CAUCHY_RADIUS * _alpha1((d, tuple((lo, hi, abs(h)) for lo, hi, h in bands)), 1.0)
    alpha = rho * np.exp(2j * math.pi * np.arange(_CAUCHY_NODES) / _CAUCHY_NODES)
    reach = (max(r - radius, 0.0) + max(s - radius, 0.0)) ** 2 / (2.0 * t)
    lam, w = _talbot_rule(t, reach)
    # one more column at lambda = _NEAR_ZERO / t: a constant in lambda inverts
    # to 0 at t > 0, so the sums may subtract it, which removes the transform's
    # value at 0 that the long-horizon sums cancel
    lam = np.append(lam, _NEAR_ZERO / t)
    qs = [(2.0 * h * alpha[:, None] - 2.0 * lam[None, :]).ravel() for _, _, h in bands]
    q0 = np.broadcast_to(-2.0 * lam, (alpha.size, lam.size)).ravel().astype(complex)
    # row k - 1 sums 2 (alpha / rho)^-k w_j over the grid: rho^k times the
    # alpha^k coefficient, k = 1, 2, 3, up to the channel weights' 1 / |S^(d-1)|
    # and the bridge's 1 / p(t, x, y)
    unit = np.exp(-2j * math.pi * np.arange(_CAUCHY_NODES) / _CAUCHY_NODES)
    project = np.stack([np.outer(unit**k, 2.0 * w).ravel() for k in (1, 2, 3)])
    cos_gamma = 1.0 if r == 0.0 else \
        min(max((r * r + s * s - gap * gap) / (2.0 * r * s), -1.0), 1.0)
    # [plain sums, sums less the lambda -> 0 column]; ``lost`` is what the
    # rule makes of that column, a constant whose exact inverse is 0
    total, spread = np.zeros((2, 3)), np.zeros((2, 3))
    lost = np.zeros(3)
    edge = np.stack([unit**k for k in (1, 2, 3)]) * (2.0 * w.sum())

    def add(values, weight, size=None):
        """Add weight times the sums of ``values``; returns the unweighted sums.

        ``size`` bounds |values| where they are differences of larger terms.
        """
        values = values.reshape(alpha.size, lam.size)
        # any constant will do: 0 where K of high order overflows near lambda = 0
        values[:, -1] = np.where(np.isfinite(values[:, -1]), values[:, -1], 0.0)
        size = np.abs(values) if size is None else size.reshape(values.shape)
        size[:, -1] = np.where(np.isfinite(size[:, -1]), size[:, -1], 0.0)
        sums = []
        for i, grid in enumerate((values[:, :-1], values[:, :-1] - values[:, -1:])):
            sums.append((project @ grid.ravel()).real)
            total[i] += weight * sums[-1]
            bound = size[:, :-1] + i * size[:, -1:]
            spread[i] += abs(weight) * (np.abs(project) @ bound.ravel())
        lost[:] += weight * (edge @ values[:, -1]).real
        return np.array(sums)

    j = _band_of(bands, r)
    if j == _band_of(bands, s) and j < len(bands) and bands[j][2] != 0.0:
        local, size = _free_difference(d, np.sqrt(-qs[j]), np.sqrt(-q0), gap)
        add(local, 1.0, size)
    quiet = 0
    for l in range(1 if r == 0.0 else _CHANNEL_CAP):  # a centre endpoint sees channel 0
        size = (l + nu) / nu
        with np.errstate(over="ignore", invalid="ignore"):
            sums = add(_scattered_channel(d, bands, qs, q0, r, s, l),
                       size * special.eval_gegenbauer(l, nu, cos_gamma))
        if not np.all(np.isfinite(total)):  # K of order nu + l overflows its scale
            break
        # the channel's size before its Gegenbauer factor: at most C_l^nu(1)
        bound = size * special.eval_gegenbauer(l, nu, 1.0) * np.abs(sums[:, 1:])
        quiet = quiet + 1 if np.all(bound <= _CHANNEL_TOL * np.abs(total[:, 1:])) else 0
        if quiet == 2:
            break
    if quiet < 2 and r > 0.0:
        raise ValueError(f"the resolvent's channel sum for radii {r}, {s} did not "
                         f"settle within {l + 1} channels")
    errors = (_ROUNDING * spread + [np.zeros(3), np.abs(lost)]) / np.abs(total)
    best = int(np.argmin(np.max(errors[:, 1:], axis=1)))
    density = (2.0 * math.pi * t) ** (-d / 2.0) * math.exp(-gap * gap / (2.0 * t))
    scale = 1.0 / (sphere_area(d) * _CAUCHY_NODES * density)
    moments = tuple(math.factorial(k) * total[best, k - 1] / rho**k * scale for k in (1, 2, 3))
    return moments, l + 1, tuple(errors[best])


def resolvent_moments(x, y, t: float, v: Potential) -> tuple:
    """((E Z, E Z^2, E Z^3), channels, errors) for the bridge from x to y over [0, t].

    Kac's resolvent above, for a radial v in d >= 3.  It reads the endpoints
    only through their distances to the centre and their distance apart, so
    the result is symmetric under (x, y) <-> (y, x).  ``errors`` estimates
    each moment's relative error; a channel sum that does not settle raises
    ValueError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n1, n2 = (float(np.linalg.norm(p - v.center)) for p in (x, y))
    return _resolvent_moments(_radial_key(v), min(n1, n2), max(n1, n2),
                              float(np.linalg.norm(y - x)), float(t))
