"""Deterministic oracles for bridge and free path integrals: moments k <= 2, one-sided mgf.

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
* finite-horizon second moments run over panel-refined pair grids that
  resolve the endpoint boundary layers and the long polynomial tails;
* the infinite-horizon mgf of a radial potential is its gauge, the
  solution of a radial ODE in closed form band by band (Bessel functions),
  with the interval of alpha on which it is finite.

Radial potentials with endpoints collinear with the support center (the
flagship configurations) follow the high-accuracy reductions; general
placements and tabulated potentials fall back to tensor-product
Gauss-Legendre rules with a correspondingly coarser declared tolerance.
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
# tensor fallback), per radial band panel, of the polar rule, and per axis
# of the tensor fallback.  The declared tolerances hold for these orders.
_TIME_NODES = 8
_SPACE_NODES = 12
_ANGULAR_NODES = 16
_BOX_NODES = 7
# The k = 1 time rule: nodes per panel in sigma = sqrt(s), its first panel
# as a fraction of min(1, R), and its longest bridge panel in units of
# t / |y - x|.  Doubling panels from a first panel this small resolve the
# erf layer of a start within 1e-4 to 1e-2 of a band edge.
_SQRT_NODES = 16
_SQRT_BASE = 2.0**-7
_SQRT_CAP = 2.0
# Time nodes evaluated together by the k = 2 bridge rule.  Larger blocks
# save little more and raise peak memory with the n_u * n_ang grid.
_NODE_BLOCK = 16


@dataclass(frozen=True)
class QuadConfig:
    """The highest moment order an oracle call may compute.

    k <= 2 by default.  ``k_max=3`` opts in to k = 3, which is available
    only through the coarse tensor rule or the infinite-horizon Green
    chain.
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

    def tolerance(self, k: int, v: Potential, infinite_horizon: bool = False) -> float:
        """Declared relative tolerance of the oracle for order k.

        Radial potentials follow the semi-analytic reductions; non-radial
        ones go through the tensor fallback, whose k >= 2 accuracy is
        limited by aliasing of v on the node set.  Infinite-horizon radial
        moments collapse to one-dimensional panel rules and are tighter.
        """
        if v.is_radial:
            if infinite_horizon:
                return {0: 0.0, 1: 1e-8, 2: 1e-7, 3: 1e-6}.get(k, 1e-4)
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


def _sym_edges(length: float, base: float):
    """Doubling panels refined toward both ends of [0, length]."""
    half = _log_edges(length / 2.0, base)
    mirrored = [length - e for e in reversed(half[:-1])]
    return half + mirrored


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


def _band_basis(d: int, q: float, a: float, r: float):
    """Two solutions on a band of constant q that starts at a > 0, at radius r.

    Returns ((psi1, psi2), (dpsi1, dpsi2), growth): the scaled solutions and
    their slopes, where the true solutions are psi1 e^(growth) and
    psi2 e^(-growth); growth is k (r - a) for q < 0 and 0 otherwise.
    """
    nu = d / 2.0 - 1.0
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


def _regular(d: int, q: float, r: float):
    """(w, w', log scale) of the solution with w(0) = 1, w'(0) = 0 on a band from 0."""
    nu = d / 2.0 - 1.0
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


def _continue(d: int, q: float, a: float, state, r: float):
    """(w, w', log scale) at r of the solution with ``state`` = (w, w', L) at a > 0."""
    f, g, log_scale = state
    (p1, p2), (dp1, dp2), _ = _band_basis(d, q, a, a)
    det = p1 * dp2 - p2 * dp1
    c1 = (f * dp2 - g * p2) / det
    c2 = (p1 * g - dp1 * f) / det
    (p1, p2), (dp1, dp2), growth = _band_basis(d, q, a, r)
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


# -- finite-horizon second moments -------------------------------------------

def _pair_nodes(t: float, base: float, m: int, symmetric: bool):
    """Ordered (s1, delta) nodes and weights over {s1 >= 0, delta > 0, s1 + delta <= t}."""
    s_edges = _sym_edges(t, base) if symmetric else _log_edges(t, base)
    s1, ws = _panel_rule(s_edges, m)
    out_s, out_d, out_w = [], [], []
    for s, w in zip(s1, ws):
        rem = t - s
        if rem <= 0:
            continue
        d_edges = _sym_edges(rem, base) if symmetric else _log_edges(rem, base)
        dd, wd = _panel_rule(d_edges, m)
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
    s1, delta, wt = _pair_nodes(horizon, base, _TIME_NODES, symmetric=False)
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
    s1, delta, wt = _pair_nodes(horizon, base, _TIME_NODES - 2, symmetric=False)
    total = 0.0
    for s, dl, wgt in zip(s1, delta, wt):
        a = vv * w * _normalized_gauss_vector(pts, w, x, s, lo, hi)
        m = _normalized_gauss_matrix(pts, w, dist2, dl, lo, hi)
        total += wgt * float(a @ m @ (vv * w))
    return 2.0 * total


# -- bridge moments -----------------------------------------------------------

def _bridge_axis_frame(x, y, v: Potential):
    """Orthonormal frame aligned with the endpoint/center geometry.

    Returns (axis, axial coordinates of x - c and y - c, perpendicular
    component of y - c, collinear flag).
    """
    c = v.center
    a1 = np.asarray(x, float) - c
    a2 = np.asarray(y, float) - c
    n1, n2 = np.linalg.norm(a1), np.linalg.norm(a2)
    if max(n1, n2) < 1e-14:
        axis = np.zeros(v.dim)
        axis[0] = 1.0
        return axis, 0.0, 0.0, 0.0, True
    axis = a1 / n1 if n1 >= n2 else a2 / n2
    ax1 = float(a1 @ axis)
    ax2 = float(a2 @ axis)
    perp_vec = a2 - ax2 * axis if n1 >= n2 else a1 - ax1 * axis
    perp = float(np.linalg.norm(perp_vec))
    collinear = perp < 1e-10 * max(1.0, n1, n2)
    return axis, ax1, ax2, perp, collinear


def _angular_grid(v: Potential, collinear: bool):
    """Polar (and azimuthal, when needed) directions with sphere weights."""
    d = v.dim
    cnodes, cw = _leggauss(_ANGULAR_NODES)
    if collinear:
        if d == 3:
            wts = cw * (sphere_area(d) / 2.0)
        else:
            wts = cw * (1.0 - cnodes**2) ** ((d - 3) / 2.0)
            wts *= sphere_area(d) / np.sum(wts)
        return cnodes, None, wts
    if d != 3:
        raise ValueError(
            "bridge k=2 quadrature with endpoints off the support axis is "
            "implemented for d=3 only; use collinear endpoints or higher dimension MC"
        )
    nphi = max(8, _ANGULAR_NODES // 2)
    phi = 2.0 * math.pi * (np.arange(nphi) + 0.5) / nphi
    cth, cph = np.meshgrid(cnodes, phi, indexing="ij")
    wts = np.broadcast_to(cw[:, None] * (2.0 * math.pi / nphi), cth.shape)
    return cth.ravel(), cph.ravel(), wts.ravel()


def _scalar_pow(a, p):
    """a ** p element by element, as a (len(a), 1, 1) column.

    numpy's vectorized power can differ from its scalar power in the last
    bit.  The k = 2 bridge rule raises its per-node factors with the scalar
    power, so its values do not depend on how time nodes are blocked.
    """
    return np.array([ai ** p for ai in a])[:, None, None]


def _moment_bridge_k2(x, y, t: float, v: Potential) -> float:
    if not v.is_radial:
        return _moment_bridge_tensor(x, y, t, v, 2)
    d = v.dim
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    axis, _, _, _, collinear = _bridge_axis_frame(x, y, v)
    cth, cph, ang_w = _angular_grid(v, collinear)
    u, wu = _panel_rule(_radial_edges(v), _SPACE_NODES)
    if u.size == 0:
        return 0.0
    rho = v.profile(u)

    if collinear:
        omega_ax = cth
        omega_perp = None
    else:
        omega_ax = cth
        omega_perp = np.sqrt(np.maximum(0.0, 1.0 - cth**2)) * np.cos(cph)

    yc = y - v.center
    yc_ax = float(yc @ axis)
    if collinear:
        yc_perp = 0.0
    else:
        perp_dir = yc - yc_ax * axis
        nv = np.linalg.norm(perp_dir)
        perp_dir = perp_dir / nv if nv > 0 else perp_dir
        yc_perp = float(yc @ perp_dir)

    # grid over z1 = c + u * omega, flattened as (n_u * n_ang,)
    U = u[:, None]
    W_space = (wu[:, None] * (U ** (d - 1)) * rho[:, None]) * ang_w[None, :]
    dot_axis = U * omega_ax[None, :]
    if omega_perp is None:
        dot_perp = np.zeros_like(dot_axis)
    else:
        dot_perp = U * omega_perp[None, :]
    u2 = (U**2) * np.ones_like(dot_axis)
    y_dot = yc_ax * dot_axis + yc_perp * dot_perp

    base = min(0.5 * min(1.0, max(v.support_radius**2, 1e-3)), t / 8.0)
    s1, delta, wt = _pair_nodes(t, base, _TIME_NODES, symmetric=True)
    s2 = s1 + delta
    sigma_floor = 0.04 * max(v.support_radius, 1e-6)
    total = 0.0
    chunk = 128  # sets the summation order of total
    for i0 in range(0, s1.size, chunk):
        sa = s1[i0:i0 + chunk]
        sb = s2[i0:i0 + chunk]
        w_t = wt[i0:i0 + chunk]
        var1 = sa * (t - sa) / t
        beta = (sb - sa) / (t - sa)
        dvar = (sb - sa) * (t - sb) / (t - sa)
        mu1 = x[None, :] + (sa / t)[:, None] * (y - x)[None, :]
        a_vec = mu1 - v.center
        a_ax = a_vec @ axis
        if omega_perp is None:
            a_perp = np.zeros(sa.size)
        else:
            a_perp = a_vec @ perp_dir
        b1 = np.sqrt(a_ax**2 + a_perp**2)

        small = np.sqrt(var1) < sigma_floor
        vals = np.empty(sa.size)
        if np.any(small):
            idx = np.where(small)[0]
            shift_ax = (1.0 - beta[idx]) * a_ax[idx] + beta[idx] * yc_ax
            shift_pp = (1.0 - beta[idx]) * a_perp[idx] + beta[idx] * yc_perp
            dist = np.hypot(shift_ax, shift_pp)
            eff = dvar[idx] + (1.0 - beta[idx]) ** 2 * var1[idx]
            vals[idx] = v.profile(b1[idx]) * np.asarray(radial_expectation(v, dist, eff))
        big = np.where(~small)[0]
        for j0 in range(0, big.size, _NODE_BLOCK):
            # one (block, n_u, n_ang) evaluation; each node is a row sum
            blk = big[j0:j0 + _NODE_BLOCK]
            one_b = 1.0 - beta[blk]
            dist_mu2 = np.sqrt(
                _scalar_pow(one_b, 2) * u2
                + _scalar_pow(beta[blk], 2) * (yc_ax**2 + yc_perp**2)
                + (2.0 * one_b * beta[blk])[:, None, None] * y_dot
            )
            inner = radial_expectation(v, dist_mu2, dvar[blk][:, None, None])
            sq = u2 + _scalar_pow(b1[blk], 2) - 2.0 * (
                a_ax[blk][:, None, None] * dot_axis + a_perp[blk][:, None, None] * dot_perp)
            dens = np.exp(-np.maximum(sq, 0.0) / (2.0 * var1[blk])[:, None, None])
            dens *= _scalar_pow(2.0 * math.pi * var1[blk], -d / 2.0)
            vals[blk] = np.sum((W_space * dens * inner).reshape(blk.size, -1), axis=1)
        total += float(np.sum(w_t * vals))
    return 2.0 * total


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
    which the bridge law satisfies exactly: the k = 1 rule treats both
    endpoints alike, and higher orders average the two orientations.
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
    if k == 2:
        forward = _moment_bridge_k2(x, y, t, v)
        if np.array_equal(np.asarray(x, float), np.asarray(y, float)):
            return forward  # both orientations are the same call
        return 0.5 * (forward + _moment_bridge_k2(y, x, t, v))
    return 0.5 * (_moment_bridge_tensor(x, y, t, v, 3) +
                  _moment_bridge_tensor(y, x, t, v, 3))


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
