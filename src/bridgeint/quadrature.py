"""Deterministic oracles for bridge and free path integrals: moments k <= 3, one-sided mgf.

The k-th moment of the path integral is k! times an integral over the
ordered time set {0 < s_1 < ... < s_k < horizon} and k copies of the
potential's support.  This module removes every Gaussian integral that can
be removed analytically:

* one-point laws reduce to the expected potential mass of an offset
  Gaussian, a ball probability for radial potentials: a closed form in
  erf and erfcx in d = 3 (a power series where its terms cancel), the
  noncentral chi-square CDF otherwise;
* every finite-horizon first moment, free or bridge, is one time rule:
  the one-point law integrated over sigma = sqrt(s) on doubling
  Gauss-Legendre panels, a bridge taking its second half from the far
  endpoint at s = t - sigma^2;
* every infinite-horizon moment of a radial potential is one Green-chain
  recursion, Kac's m_k = k G(v m_{k-1}) from the closed-form Green
  potential m_1, each order a one-dimensional radial integral through the
  spherical mean-value property of the Green kernel;
* bridge moments k = 2 and 3 of a radial potential come from Kac's
  resolvent: spherical-harmonic channels, closed form band by band in
  the gauge's Bessel basis at complex kappa, inverted on Talbot's contour,
  with the moments read off a Cauchy integral in alpha;
* free second moments at a finite horizon run over panel-refined pair
  grids that resolve the boundary layer at the start and the long
  polynomial tail;
* the infinite-horizon mgf of a radial potential is its gauge, the
  solution of a radial ODE in closed form band by band (Bessel functions),
  with the interval of alpha on which it is finite.

Tabulated potentials fall back to tensor-product Gauss-Legendre rules for
k >= 2, with a correspondingly coarser declared tolerance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .potentials import (
    Potential,
    cell_green_kernel,
    green_constant,
    green_potential,
    green_potential_radial,
    sphere_area,
)

__all__ = [
    "QuadConfig",
    "moment_free",
    "moment_bridge",
    "moment_two_sided",
    "horizon_moment_gap",
    "ordered_simplex_nodes",
    "radial_ball_cdf",
    "radial_expectation",
    "MGF_TOLERANCE",
    "alpha1_interval",
    "mgf_one_sided",
]


# Gauss-Legendre orders: per time panel (or per simplex dimension in the
# tensor fallback), per radial band panel, and per axis of the tensor
# fallback.  The declared tolerances hold for these orders.
_TIME_NODES = 8
_SPACE_NODES = 12
_BOX_NODES = 7
# The k = 1 time rule: nodes per panel in sigma = sqrt(s), its first panel
# as a fraction of min(1, R), and its longest bridge panel in units of
# t / |y - x|.  Doubling panels from a first panel this small resolve the
# erf layer of a start within 1e-4 to 1e-2 of a band edge.
_SQRT_NODES = 16
_SQRT_BASE = 2.0**-7
_SQRT_CAP = 2.0


@dataclass(frozen=True)
class QuadConfig:
    """The highest moment order an oracle call may compute.

    k <= 2 by default.  ``k_max=3`` opts in to k = 3, which is available
    for bridges and through the infinite-horizon Green chain.
    """

    k_max: int = 2

    def __post_init__(self):
        if not (0 <= self.k_max <= 3):
            raise ValueError("k_max must lie in 0..3")

    def check_order(self, k: int):
        if k < 0:
            raise ValueError("moment order must be nonnegative")
        if k > self.k_max:
            raise ValueError(
                f"moment order k={k} exceeds k_max={self.k_max}; "
                "k = 3 needs QuadConfig(k_max=3)"
            )

    def tolerance(self, k: int, v: Potential, infinite_horizon: bool = False,
                  bridge: bool = False) -> float:
        """Declared relative tolerance of the oracle for order k.

        Radial potentials follow the semi-analytic reductions; non-radial
        ones go through the tensor fallback, whose k >= 2 accuracy is
        limited by aliasing of v on the node set.  Infinite-horizon radial
        moments collapse to one-dimensional panel rules and are tighter.
        A finite-horizon radial bridge (``bridge``) takes k = 2 and 3 from
        Kac's resolvent.  On 374 cases (d = 3-5, three radial potentials,
        seven endpoint pairs, t = 0.2-2560) its values moved by at most
        1.3e-8 under 24 -> 32 Talbot nodes, an alpha radius of 0.25 -> 0.125
        or 0.375 of alpha1 and a channel tolerance of 1e-13 -> 1e-15,
        wherever its own error estimate is at most 1e-6: the bound it
        enforces.  The free k = 2 pair rule keeps 5e-3.
        """
        if v.is_radial:
            if infinite_horizon:
                return {0: 0.0, 1: 1e-8, 2: 1e-7, 3: 1e-6}.get(k, 1e-4)
            if bridge and k in (2, 3):
                return 1e-6
            return {0: 0.0, 1: 1e-6, 2: 5e-3, 3: 5e-2}.get(k, 1e-1)
        if infinite_horizon:
            return {0: 0.0, 1: 1e-4, 2: 5e-2, 3: 1e-1}.get(k, 2e-1)
        return {0: 0.0, 1: 1e-5, 2: 1e-1, 3: 2e-1}.get(k, 2e-1)


DEFAULT = QuadConfig()


# -- elementary rules --------------------------------------------------------

_LEG_CACHE: dict = {}


def _leggauss(m: int):
    if m not in _LEG_CACHE:
        _LEG_CACHE[m] = np.polynomial.legendre.leggauss(m)
    return _LEG_CACHE[m]


def _panel_rule(edges, m: int):
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


def _log_edges(length: float, base: float, cap: float = math.inf):
    """Edges 0, base, 2 base, 4 base, ... covering [0, length], panels at most cap long."""
    if length <= 0:
        return [0.0]
    edges = [0.0]
    h = min(base, length)
    while edges[-1] + h < length:
        edges.append(edges[-1] + h)
        h = min(2.0 * h, cap)
    edges.append(length)
    return edges


def ordered_simplex_nodes(k: int, t: float, m: int):
    """Product Gauss-Legendre rule over {0 < s_1 < ... < s_k < t}.

    Returns (nodes, weights) with nodes of shape (M, k) in increasing
    order per row; integrating the constant 1 yields t^k / k!.
    """
    if k < 1 or k > 3:
        raise ValueError("ordered simplex rule supports 1 <= k <= 3")
    x, w = _leggauss(m)
    a = 0.5 * (x + 1.0)
    wa = 0.5 * w
    if k == 1:
        return (t * a)[:, None], t * wa
    if k == 2:
        A, B = np.meshgrid(a, a, indexing="ij")
        WA, WB = np.meshgrid(wa, wa, indexing="ij")
        s2 = t * A
        s1 = s2 * B
        wt = WA * WB * t * t * A
        nodes = np.stack([s1.ravel(), s2.ravel()], axis=1)
        return nodes, wt.ravel()
    A, B, C = np.meshgrid(a, a, a, indexing="ij")
    WA, WB, WC = np.meshgrid(wa, wa, wa, indexing="ij")
    s3 = t * A
    s2 = s3 * B
    s1 = s2 * C
    wt = WA * WB * WC * t**3 * A * A * B
    nodes = np.stack([s1.ravel(), s2.ravel(), s3.ravel()], axis=1)
    return nodes, wt.ravel()


# -- radial primitives -------------------------------------------------------

def radial_ball_cdf(r, b, var, d: int):
    """P(|Z| <= r) for Z ~ N(b e1, var I_d), vectorized with guards.

    Exact step limits hold when the Gaussian is frozen or far from the
    shell.  Between them, d = 3 has a closed form (``_ball_cdf3``), exact
    at every noncentrality including b = 0; other dimensions use the
    noncentral chi-square CDF, with a mean-corrected normal approximation
    when the noncentrality would overflow the special function.
    """
    r, b, var = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (r, b, var)))
    out = np.empty(r.shape)
    sigma = np.sqrt(np.maximum(var, 0.0))
    margin = sigma * (math.sqrt(d) + 12.0)
    frozen = var <= 0.0
    below = ~frozen & (r <= b - margin)
    above = ~frozen & (r >= b + margin)
    out[frozen] = (r[frozen] >= b[frozen]).astype(float)
    out[below] = 0.0
    out[above] = 1.0
    mid = ~(frozen | below | above)
    if d == 3:
        idx = np.flatnonzero(mid)  # integer indices gather faster than the mask
        np.put(out, idx, _ball_cdf3(*(np.take(z, idx) for z in (r, b, sigma))))
    elif np.any(mid):
        rm, bm, vm = r[mid], b[mid], var[mid]
        nc = bm * bm / vm
        xx = rm * rm / vm
        big = nc > 1e7
        vals = np.empty(rm.shape)
        if np.any(~big):
            central = nc[~big] < 1e-12
            sub = np.empty(nc[~big].shape)
            if np.any(central):
                sub[central] = special.gammainc(d / 2.0, xx[~big][central] / 2.0)
            if np.any(~central):
                sub[~central] = special.chndtr(xx[~big][~central], d, nc[~big][~central])
            vals[~big] = sub
        if np.any(big):
            mu_r = np.sqrt(bm[big] ** 2 + (d - 1) * vm[big])
            vals[big] = special.ndtr((rm[big] - mu_r) / np.sqrt(vm[big]))
        out[mid] = vals
    return out


# The d = 3 ball probability (``_ball_cdf3``) switches from its closed form
# to a power series below a = r / sigma = _SMALL_A.  The closed form's two
# terms cancel as a falls: against 50-digit mpmath its relative error is
# below 1e-13 for a >= 0.2, up to 5e-13 on [0.1, 0.2), 2e-12 on
# [0.05, 0.1) and 4e-7 near a = 0.001.
_SMALL_A = 0.1
_SQRT_HALF = math.sqrt(0.5)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _ball_cdf3(r, b, sigma):
    """P(|Z| <= r) for Z ~ N(b e1, sigma^2 I_3), elementwise.

    Needs sigma > 0 and r > b - (sqrt(3) + 12) sigma, as inside the
    guards of ``radial_ball_cdf``.
    """
    small = np.flatnonzero(r < _SMALL_A * sigma)
    if small.size == 0:
        return _ball_cdf3_closed(r, b, sigma)
    out = np.empty(r.shape)
    sig = sigma[small]
    out[small] = _ball_cdf3_series(r[small] / sig, b[small] / sig)
    big = np.flatnonzero(r >= _SMALL_A * sigma)
    out[big] = _ball_cdf3_closed(r[big], b[big], sigma[big])
    return out


def _ball_cdf3_closed(r, b, sigma):
    """The closed form F = P(|N(mu, 1)| <= a) - 2 a phi(a - mu) g(2 a mu).

    a = r / sigma, mu = b / sigma, phi is the standard normal density and
    g(x) = -expm1(-x) / x.  The one-dimensional probability is a sum of erf
    values near the centre; in the lower tail (a - mu <= -1) it is
    phi(a - mu) times a difference of erfcx values, so both terms of F carry
    the same Gaussian factor and only slowly varying factors cancel.
    """
    a = r / sigma
    t1 = (r - b) / sigma * _SQRT_HALF  # (a - mu) / sqrt(2)
    t2 = (r + b) / sigma * _SQRT_HALF  # (a + mu) / sqrt(2)
    x = np.maximum(2.0 * a * (b / sigma), 1e-300)  # 2 a mu; g(x) = 1 at b = 0
    gauss = np.exp(-t1 * t1)  # sqrt(2 pi) phi(a - mu)
    out = _INV_SQRT_2PI * gauss * (2.0 * a) * (np.expm1(-x) / x)
    core = np.flatnonzero(t1 > -_SQRT_HALF)
    tail = np.flatnonzero(t1 <= -_SQRT_HALF)
    out[core] += 0.5 * (special.erf(t2[core]) + special.erf(t1[core]))
    tt = t1[tail]
    out[tail] += 0.5 * gauss[tail] * (special.erfcx(-tt) -
                                      np.exp(-x[tail]) * special.erfcx(t2[tail]))
    return out


def _ball_cdf3_series(a, mu):
    """The power series of F in P = (a mu)^2 and Q = -a^2 / 2, for a < _SMALL_A.

    F = 2 phi(mu) a^3 int_0^1 tau^2 exp(Q tau^2) sinh(a mu tau) / (a mu tau) dtau
      = 2 phi(mu) a^3 sum_jk P^j Q^k / ((2j+1)! k! (2j+2k+3)).
    """
    p = (a * mu) ** 2
    q = -0.5 * a * a
    total = np.zeros(a.shape)
    for coef in reversed(_series_coefficients()):
        inner = np.full(a.shape, coef[-1])
        for c in coef[-2::-1]:
            inner *= p
            inner += c
        total *= q
        total += inner
    return 2.0 * _INV_SQRT_2PI * np.exp(-0.5 * mu * mu) * a**3 * total


@functools.cache
def _series_coefficients() -> tuple:
    """Per power k of Q, the coefficients in P that _ball_cdf3_series keeps.

    A term is kept while its largest value for a < _SMALL_A (where
    mu < a + sqrt(3) + 12) exceeds 1e-18 of the leading term 1/3: 48 terms.
    """
    p_max = (_SMALL_A * (_SMALL_A + math.sqrt(3.0) + 12.0)) ** 2
    q_max = 0.5 * _SMALL_A**2
    out = []
    for k in range(32):
        coef = [_series_term(j, k) for j in range(32)
                if _series_term(j, k) * p_max**j * q_max**k > 1e-18 / 3.0]
        if not coef:
            break
        out.append(np.array(coef))
    return tuple(out)


def _series_term(j: int, k: int) -> float:
    return 1.0 / (math.factorial(2 * j + 1) * math.factorial(k) * (2 * j + 2 * k + 3))


def radial_expectation(v: Potential, b, var):
    """E[v(Z)] for Z ~ N(center + b e1, var I), v radial about its center."""
    if not v.is_radial:
        raise ValueError("radial expectation needs a radial potential")
    b, var = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (b, var)))
    total = np.zeros(b.shape)
    cdf = {}  # one CDF per band edge; adjacent bands share one
    for lo, hi, h in v.bands():
        if h == 0.0:
            continue
        for edge in (lo, hi):
            if edge > 0 and edge not in cdf:
                cdf[edge] = radial_ball_cdf(edge, b, var, v.dim)
        total = total + h * (cdf[hi] - cdf.get(lo, 0.0))
    return total if total.ndim else float(total)


def _radial_norm_pdf(u, b: float, var: float, d: int):
    """Density of |Z| at u for Z ~ N(b e1, var I_d)."""
    u = np.asarray(u, dtype=float)
    if var <= 0.0:
        raise ValueError("the radial density needs positive variance")
    sigma = math.sqrt(var)
    if b < 1e-12 * sigma:
        logc = math.log(2.0) - (d / 2.0) * math.log(2.0 * var) - special.gammaln(d / 2.0)
        return np.exp(logc + (d - 1) * np.log(np.maximum(u, 1e-300)) - u * u / (2.0 * var))
    if b / sigma > 1e4:
        mu_r = math.sqrt(b * b + (d - 1) * var)
        z = (u - mu_r) / sigma
        return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))
    if d == 3:
        pref = u / (b * sigma * math.sqrt(2.0 * math.pi))
        return pref * (np.exp(-((u - b) ** 2) / (2.0 * var)) -
                       np.exp(-((u + b) ** 2) / (2.0 * var)))
    from scipy import stats
    return (2.0 * u / var) * stats.ncx2.pdf(u * u / var, d, b * b / var)


def _radial_edges(v: Potential, extra=()):
    pts = [0.0] + [hi for _, hi, _ in v.bands()] + [lo for lo, _, _ in v.bands()]
    pts += [float(e) for e in extra if 0.0 <= e <= v.support_radius]
    return sorted(set(round(p, 15) for p in pts))


# -- first moments -----------------------------------------------------------

def _smear(v: Potential, mu, var):
    """int v(z) N(z; mu, var I) dz for a batch of means and variances."""
    mu = np.atleast_2d(np.asarray(mu, dtype=float))
    var = np.broadcast_to(np.asarray(var, dtype=float), mu.shape[:1]).astype(float)
    if v.is_radial:
        b = np.linalg.norm(mu - v.center, axis=1)
        return np.asarray(radial_expectation(v, b, var))
    return _tabulated_smear(v, mu, var)


def _tabulated_smear(v: Potential, mu: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Exact Gaussian mass of every table cell against N(mu_i, var_i I), row by row.

    One ndtr call per axis covers every row, and each axis of the table is
    contracted with its cell masses for all rows at once.  A row with
    var_i <= 0 is the point value v(mu_i).
    """
    out = np.asarray(v(mu), dtype=float)
    live = var > 0.0
    if not live.any():
        return out
    mu, sd = mu[live], np.sqrt(var[live])[:, None]
    acc = np.broadcast_to(v.values, (mu.shape[0], *v.values.shape))
    for axis in range(v.dim):
        edges = v.origin[axis] + v.spacing * np.arange(v.values.shape[axis] + 1)
        mass = np.diff(special.ndtr((edges - mu[:, axis, None]) / sd), axis=1)
        acc = np.einsum("mi,mi...->m...", mass, acc)
    out[live] = acc
    return out


def _occupation_k1(v: Potential, x, horizon: float, y=None) -> float:
    """E int_0^horizon v(X_s) ds for free motion from x, or the bridge x -> y.

    The substitution s = sigma^2 turns the sqrt(s) layer of a start on a
    band edge into a smooth integrand, and doubling Gauss-Legendre panels
    in sigma follow the s^(-d/2) tail.  A bridge integrates its first half
    from x and its second half at s = horizon - sigma^2 from y on the same
    nodes, so the rule is symmetric under time reversal.  Where the
    bridge's mean crosses a band edge, its one-point law changes over a
    sigma interval of about horizon / (2 |y - x|) at any s, which caps the
    bridge panels.
    """
    x = np.asarray(x, dtype=float)
    base = _SQRT_BASE * min(1.0, v.support_radius)
    if y is None:
        half, cap = horizon, math.inf
    else:
        y = np.asarray(y, dtype=float)
        gap = float(np.linalg.norm(y - x))
        half, cap = horizon / 2.0, _SQRT_CAP * horizon / gap if gap > 0 else math.inf
    sigma, w = _panel_rule(_log_edges(math.sqrt(half), base, cap), _SQRT_NODES)
    s = sigma * sigma
    w = 2.0 * sigma * w
    if y is None:
        return float(np.sum(w * _smear(v, np.broadcast_to(x, (s.size, v.dim)), s)))
    frac = (s / horizon)[:, None]
    var = s * (horizon - s) / horizon
    vals = _smear(v, x + frac * (y - x), var) + _smear(v, y + frac * (x - y), var)
    return float(np.sum(w * vals))


# -- infinite-horizon moments -----------------------------------------------

def _green_chain(v: Potential, b: float, k: int) -> float:
    """E Y^k of the infinite-horizon integral from distance b to the center of a radial v.

    Kac's moment formula m_k = k G(v m_{k-1}), with m_1 the Green potential.
    Over the sphere of radius u the Green kernel averages to
    c_d max(u, b)^(2-d), so each order is a radial integral on panels split
    at the kernel's kink u = b.
    """
    if k == 1:
        return float(green_potential_radial(v, b))
    d = v.dim
    u, w = _panel_rule(_radial_edges(v, extra=(b,)), _SPACE_NODES)
    if u.size == 0:
        return 0.0
    if k == 2:
        prev = green_potential_radial(v, u)
    else:
        prev = np.array([_green_chain(v, ui, k - 1) for ui in u])
    kernel = green_constant(d) * np.maximum(u, b) ** (2.0 - d)
    integ = u ** (d - 1) * v.profile(u) * kernel * prev
    return float(k * sphere_area(d) * np.sum(w * integ))


def _moment_free_inf_k2_general(x, v: Potential) -> float:
    pts, w, vv = _box_nodes(v)
    d = v.dim
    cd = green_constant(d)
    x = np.asarray(x, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    cell_vol = float(np.mean(w))
    kern = cell_green_kernel(np.linalg.norm(diff, axis=-1), cell_vol, d)
    gstart = cell_green_kernel(np.linalg.norm(pts - x, axis=-1), cell_vol, d)
    a = vv * w * gstart
    bvec = vv * w
    return float(2.0 * cd * cd * a @ kern @ bvec)


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


# -- radial bridge moments k >= 2: Kac's resolvent -----------------------------
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
    exact ``_occupation_k1``.
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


# -- finite-horizon second moments -------------------------------------------

def _pair_nodes(t: float, base: float, m: int):
    """Ordered (s1, delta) nodes and weights over {s1 >= 0, delta > 0, s1 + delta <= t}."""
    s1, ws = _panel_rule(_log_edges(t, base), m)
    out_s, out_d, out_w = [], [], []
    for s, w in zip(s1, ws):
        rem = t - s
        if rem <= 0:
            continue
        dd, wd = _panel_rule(_log_edges(rem, base), m)
        out_s.append(np.full(dd.size, s))
        out_d.append(dd)
        out_w.append(w * wd)
    return np.concatenate(out_s), np.concatenate(out_d), np.concatenate(out_w)


def _moment_free_k2(x, horizon: float, v: Potential) -> float:
    if not v.is_radial:
        return _moment_free_fin_k2_general(x, horizon, v)
    d = v.dim
    b = float(np.linalg.norm(np.asarray(x, float) - v.center))
    base = 0.5 * min(1.0, max(v.support_radius**2, 1e-3))
    s1, delta, wt = _pair_nodes(horizon, base, _TIME_NODES)
    u, wu = _panel_rule(_radial_edges(v), _SPACE_NODES)
    if u.size == 0:
        return 0.0
    rho = v.profile(u)
    total = 0.0
    sigma_floor = 0.03 * max(v.support_radius, 1e-6)
    chunk = 256
    for i0 in range(0, s1.size, chunk):
        s = s1[i0:i0 + chunk]
        dl = delta[i0:i0 + chunk]
        w = wt[i0:i0 + chunk]
        inner = radial_expectation(v, u[None, :], dl[:, None])
        small = np.sqrt(s) < sigma_floor
        vals = np.empty(s.size)
        if np.any(small):
            point = v.profile(np.full(np.sum(small), b)) * \
                np.asarray(radial_expectation(v, b, dl[small]))
            vals[small] = point
        if np.any(~small):
            idx = np.where(~small)[0]
            pdf = np.stack([_radial_norm_pdf(u, b, s[i], d) for i in idx])
            vals[idx] = np.sum(wu[None, :] * pdf * rho[None, :] * inner[idx], axis=1)
        total += float(np.sum(w * vals))
    return 2.0 * total


def _box_mass(mu, var, lo, hi):
    """Exact Gaussian mass of the box [lo, hi] for N(mu, var I), batched."""
    mu = np.atleast_2d(mu)
    sd = math.sqrt(var)
    upper = special.ndtr((hi[None, :] - mu) / sd)
    lower = special.ndtr((lo[None, :] - mu) / sd)
    return np.prod(upper - lower, axis=1)


def _normalized_gauss_vector(pts, w, mu, var, lo, hi):
    """Discrete Gaussian density at the nodes, rescaled to its exact box mass.

    Without the rescaling a Gaussian narrower than the node spacing is
    grossly mis-integrated; with it the discrete kernel carries exactly the
    mass the continuous one does, which keeps coarse tensor rules stable
    down to vanishing time gaps.
    """
    d = pts.shape[1]
    diff = pts - np.asarray(mu, dtype=float)
    dens = np.exp(-np.sum(diff * diff, axis=1) / (2.0 * var))
    dens *= (2.0 * math.pi * var) ** (-d / 2.0)
    raw = float(np.sum(dens * w))
    exact = float(_box_mass(np.asarray(mu, float), var, lo, hi)[0])
    if raw <= 1e-300 or exact <= 1e-300:
        return np.zeros(pts.shape[0])
    return dens * (exact / raw)


def _normalized_gauss_matrix(pts, w, dist2, var, lo, hi):
    """Row-normalized transition kernel between the tensor nodes."""
    d = pts.shape[1]
    kern = np.exp(-dist2 / (2.0 * var)) * (2.0 * math.pi * var) ** (-d / 2.0)
    raw = kern @ w
    exact = _box_mass(pts, var, lo, hi)
    scale = np.zeros(raw.shape)
    ok = (raw > 1e-300) & (exact > 1e-300)
    scale[ok] = exact[ok] / raw[ok]
    return kern * scale[:, None]


def _moment_free_fin_k2_general(x, horizon: float, v: Potential) -> float:
    pts, w, vv = _box_nodes(v)
    lo, hi = v.support_box()
    x = np.asarray(x, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    dist2 = np.sum(diff * diff, axis=-1)
    base = max(0.5 * min(1.0, max(v.support_radius**2, 1e-3)), horizon / 256.0)
    s1, delta, wt = _pair_nodes(horizon, base, _TIME_NODES - 2)
    total = 0.0
    for s, dl, wgt in zip(s1, delta, wt):
        a = vv * w * _normalized_gauss_vector(pts, w, x, s, lo, hi)
        m = _normalized_gauss_matrix(pts, w, dist2, dl, lo, hi)
        total += wgt * float(a @ m @ (vv * w))
    return 2.0 * total


# -- bridge moments -----------------------------------------------------------

def _radial_bridge_moment(x, y, t: float, v: Potential, k: int, cfg: QuadConfig) -> float:
    """E Z(t)^k, k = 2 or 3, for a radial v in d >= 3, from Kac's resolvent."""
    if v.dim < 3:
        raise ValueError("bridge moments k >= 2 of a radial potential need d >= 3")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n1, n2 = (float(np.linalg.norm(p - v.center)) for p in (x, y))
    moments, _, errors = _resolvent_moments(_radial_key(v), min(n1, n2), max(n1, n2),
                                            float(np.linalg.norm(y - x)), float(t))
    if not errors[k - 1] <= cfg.tolerance(k, v, bridge=True):
        raise ValueError(
            f"the bridge k = {k} oracle loses its declared accuracy over t = {t} "
            f"(rounding estimate {errors[k - 1]:.1e} relative): the endpoints are "
            "too far from each other, and from the support, for so short a horizon")
    return float(moments[k - 1])


def _box_nodes(v: Potential):
    lo, hi = v.support_box()
    x, w = _leggauss(_BOX_NODES)
    axes, weights = [], []
    for i in range(v.dim):
        half = 0.5 * (hi[i] - lo[i])
        axes.append(0.5 * (lo[i] + hi[i]) + half * x)
        weights.append(half * w)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    wts = np.prod(np.stack(np.meshgrid(*weights, indexing="ij")), axis=0).ravel()
    return pts, wts, v(pts)


def _moment_bridge_tensor(x, y, t: float, v: Potential, k: int) -> float:
    """Tensor-product fallback on the support box; resolution limited.

    Every Gaussian factor (start, transitions, terminal) is rescaled to its
    exact box mass so that time gaps narrower than the node spacing stay
    bounded; what remains is the aliasing of v on the coarse node set,
    which dominates the declared tolerance for non-radial potentials.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pts, w, vv = _box_nodes(v)
    lo, hi = v.support_box()
    nodes, tw = ordered_simplex_nodes(k, t, _TIME_NODES)
    diff = pts[:, None, :] - pts[None, :, :]
    dist2 = np.sum(diff * diff, axis=-1)
    log_norm = (-v.dim / 2.0 * math.log(2.0 * math.pi * t)
                - float((y - x) @ (y - x)) / (2.0 * t))
    total = 0.0
    for row, wgt in zip(nodes, tw):
        s = row
        vec = vv * w * _normalized_gauss_vector(pts, w, x, s[0], lo, hi)
        for j in range(1, k):
            ds = s[j] - s[j - 1]
            m = _normalized_gauss_matrix(pts, w, dist2, ds, lo, hi)
            vec = (vec @ m) * (vv * w)
        tail = t - s[k - 1]
        vec = vec * _normalized_gauss_vector(pts, w, y, tail, lo, hi)
        total += wgt * float(np.sum(vec))
    return math.factorial(k) * total / math.exp(log_norm)


# -- public operations --------------------------------------------------------

def moment_free(x, horizon: float, v: Potential, k: int,
                cfg: QuadConfig = DEFAULT) -> float:
    """E[(int_0^horizon v(W_s) ds)^k] for Brownian motion started at x.

    horizon may be inf (d >= 3 required there).  Infinite-horizon moments
    of a radial v come from the Green chain; a finite-horizon first moment
    from the sqrt(s) time rule, and a second from the pair-correlation form.
    """
    cfg.check_order(k)
    if not (horizon > 0):
        raise ValueError("horizon must be positive")
    if k == 0:
        return 1.0
    if v.is_zero:
        return 0.0
    if not math.isfinite(horizon):
        if v.dim < 3:
            raise ValueError("infinite-horizon moments require d >= 3")
        if v.is_radial:
            return _green_chain(v, float(np.linalg.norm(np.asarray(x, float) - v.center)), k)
        if k == 1:
            return float(green_potential(v, x))
        if k == 2:
            return float(_moment_free_inf_k2_general(x, v))
        raise ValueError("k = 3 infinite-horizon moments need a radial potential")
    if k == 1:
        return _occupation_k1(v, x, horizon)
    if k == 2:
        return float(_moment_free_k2(x, horizon, v))
    raise ValueError("finite-horizon k=3 free moments are not supported; "
                     "use the infinite-horizon Green chain or Monte Carlo")


def moment_bridge(x, y, t: float, v: Potential, k: int,
                  cfg: QuadConfig = DEFAULT) -> float:
    """E[(int_0^t v(X_s) ds)^k] for the bridge from x to y over [0, t].

    The result is symmetric under the time reversal (x, y) <-> (y, x),
    which the bridge law satisfies exactly.  k = 1 is the sqrt(s) time rule,
    which treats both endpoints alike.  k = 2 and 3 of a radial v (d >= 3)
    come from Kac's resolvent, which reads the endpoints only through their
    distances to the centre and the angle between them; a geometry whose
    rounding estimate exceeds the declared tolerance raises ValueError.
    Tabulated v average the tensor rule over both orientations.
    """
    cfg.check_order(k)
    if not (t > 0) or not math.isfinite(t):
        raise ValueError("bridge horizon must be positive and finite")
    if k == 0:
        return 1.0
    if v.is_zero:
        return 0.0
    if k == 1:
        return _occupation_k1(v, x, t, y)
    if v.is_radial:
        return _radial_bridge_moment(x, y, t, v, k, cfg)
    forward = _moment_bridge_tensor(x, y, t, v, k)
    if np.array_equal(np.asarray(x, float), np.asarray(y, float)):
        return forward  # both orientations are the same call
    return 0.5 * (forward + _moment_bridge_tensor(y, x, t, v, k))


def _two_sided_moment(x, y, horizon: float, v: Potential, k: int, cfg: QuadConfig) -> float:
    """E[(Y_x(h) + Y'_y(h))^k] by the binomial sum over one-sided moments."""
    total = 0.0
    for j in range(k + 1):
        total += math.comb(k, j) * moment_free(x, horizon, v, j, cfg) * \
            moment_free(y, horizon, v, k - j, cfg)
    return total


def moment_two_sided(x, y, v: Potential, k: int,
                     cfg: QuadConfig = DEFAULT) -> float:
    """E[(Y_x + Y'_y)^k] for independent infinite-horizon one-sided integrals.

    Binomial expansion over the one-sided moments.
    """
    cfg.check_order(k)
    return _two_sided_moment(x, y, math.inf, v, k, cfg)


def horizon_moment_gap(x, y, t: float, u: float, v: Potential, k: int,
                       cfg: QuadConfig = DEFAULT) -> float:
    """Difference of k-th two-sided moments between horizons t and u, over k!.

    Computes [E(Y_x(t) + Y'_y(t))^k - E(Y_x(u) + Y'_y(u))^k] / k!.
    Nonnegative for v >= 0, shrinking as u grows toward t.
    """
    cfg.check_order(k)
    if not (0.0 < u <= t):
        raise ValueError("the comparison horizon must satisfy 0 < u <= t")
    if u == t:
        return 0.0
    return (_two_sided_moment(x, y, t, v, k, cfg)
            - _two_sided_moment(x, y, u, v, k, cfg)) / math.factorial(k)
