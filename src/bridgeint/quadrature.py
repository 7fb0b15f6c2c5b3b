"""Deterministic moment oracles for bridge and free path integrals, k <= 3.

The k-th moment of the path integral is k! times an integral over the
ordered time set {0 < s_1 < ... < s_k < horizon} and k copies of the
potential's support.  This module holds the rules in time, and the public
``moment_*`` calls that choose between them and the operators of ``green``:

* one-point laws reduce to the expected potential mass of an offset
  Gaussian, a ball probability for radial potentials: a closed form in
  erf and erfcx in d = 3 (a power series where its terms cancel), the
  noncentral chi-square CDF otherwise;
* every finite-horizon first moment, free or bridge, is one time rule:
  the one-point law integrated over sigma = sqrt(s) on doubling
  Gauss-Legendre panels, a bridge taking its second half from the far
  endpoint at s = t - sigma^2;
* the second moment of a tabulated potential, bridge or free, is the pair
  law E Z^2 = 2 int int_{s1 < s2} E v(X_s1) v(X_s2): the path's coordinates
  are independent, so each axis gives a matrix of bivariate normal cell
  masses (Owen's T), contracted with the table axis by axis; the time rule
  integrates the covariance of the two values, in sqrt substitutions at
  s1 -> 0, at s2 - s1 -> 0 and, on a bridge, at s2 -> t, and adds (E Z)^2;
* k = 3 on a tabulated bridge takes a tensor-product Gauss-Legendre rule,
  with a correspondingly coarser declared tolerance.

A bridge rule integrates only the times at which the bridge's mean path
comes within reach of the support, so endpoints far from it and from each
other give 0 or a bounded number of panels; a rule that would need more
raises ValueError.

Infinite-horizon moments come from the Green chain of ``green``: band by
band for a radial potential, on sub-cells for a tabulated one.  Radial
moments k = 2 and 3 at a finite horizon come from Kac's resolvent
(``green``): bridge moments from its kernel, free ones from the resolvent
applied to 1.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special

from .green import (
    CELL_TOLERANCE,
    cell_chain,
    green_chain,
    panel_rule,
    resolvent_moments,
)
from .potentials import Potential

__all__ = [
    "QuadConfig",
    "moment_free",
    "moment_bridge",
    "moment_two_sided",
    "horizon_moment_gap",
    "ordered_simplex_nodes",
    "radial_ball_cdf",
    "radial_expectation",
]


# Gauss-Legendre orders: per time panel (or per simplex dimension in the
# tensor fallback), and per axis of the tensor fallback.  The declared
# tolerances hold for these orders and for the radial rule of ``green``.
_TIME_NODES = 8
_BOX_NODES = 7
# The k = 1 time rule: nodes per panel in sigma = sqrt(s), its first panel
# as a fraction of min(1, R), and its longest bridge panel in units of
# t / |y - x|.  Doubling panels from a first panel this small resolve the
# erf layer of a start within 1e-4 to 1e-2 of a band edge.
_SQRT_NODES = 16
_SQRT_BASE = 2.0**-7
_SQRT_CAP = 2.0
# A bridge's one-point law puts less than 1e-300 of its mass beyond _REACH
# standard deviations of its widest point, sqrt(t) / 2, so its mean path
# reaches the support only where it comes within the support radius plus
# that distance; a free start, whose widest point is sqrt(T), reaches it
# only from within _REACH sqrt(T) of the support ball.  Inside a bridge's
# window, one half of a time rule takes at most _MAX_PANELS panels, and the
# pair rule at most _PAIR_MAX_PANELS per time axis.
_REACH = 40.0
_MAX_PANELS = 4096
_PAIR_MAX_PANELS = 64


class QuadConfig:
    """The declared relative tolerances of the oracles, per moment order."""

    def tolerance(self, k: int, v: Potential, infinite_horizon: bool = False,
                  bridge: bool = False) -> float:
        """Declared relative tolerance of the oracle for order k.

        Radial k = 1 is the sqrt(s) time rule.  Radial k = 2 and 3 at a
        finite horizon come from Kac's resolvent, which refuses a call whose
        own error estimate exceeds 1e-6, the bound it declares.  On 374
        bridge cases (d = 3-5, three radial potentials, seven endpoint pairs,
        t = 0.2-2560) its values moved by at most 1.3e-8 under 24 -> 32
        Talbot nodes, an alpha radius of 0.25 -> 0.125 or 0.375 of alpha1 and
        a channel tolerance of 1e-13 -> 1e-15; free k = 2 met mpmath
        inversions of the band transform to 7.4e-9 on 270 cases (d = 3-5,
        T = 0.05-1e4).  Tabulated ones are five times the largest difference
        from the same rule refined to a sixteenth of its base: k = 1, with 32
        nodes a panel, 2.8e-15 on 23 bridges and free starts, cell faces
        among them; the pair rule (k = 2), with 12 nodes a panel, 6.1e-6 on
        15 bridges (``bridge``) and 2.5e-5 on 16 free starts.  Infinite-
        horizon radial moments are panel rules in the radius; a tabulated v
        there takes the cell operators of ``green``, which declare
        ``green.CELL_TOLERANCE``.
        """
        if v.is_radial:
            if infinite_horizon:
                return {0: 0.0, 1: 1e-8, 2: 1e-7, 3: 1e-6}.get(k, 1e-4)
            return {0: 0.0, 1: 1e-6, 2: 1e-6, 3: 1e-6}.get(k, 1e-1)
        if infinite_horizon:
            return {0: 0.0, **CELL_TOLERANCE}.get(k, 2e-1)
        return {0: 0.0, 1: 1.4e-14, 2: 1e-5 if bridge else 1.25e-4, 3: 2e-1}.get(k, 2e-1)


DEFAULT = QuadConfig()


# -- elementary rules --------------------------------------------------------

def _check_order(k: int):
    if not 0 <= k <= 3:
        raise ValueError(f"moment order k={k} must lie in 0..3")


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
    x, w = np.polynomial.legendre.leggauss(m)
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


def _reach_window(v: Potential, x, y, t: float):
    """The times (lo, hi) at which the mean path of the bridge x -> y is in reach.

    Reach is the support radius plus _REACH times the bridge's widest
    standard deviation; at any other time the one-point law misses the
    support to below 1e-300.  Returns None when the mean path is never in
    reach, and (0, t) whenever it is in reach all along.  Raises ValueError
    when y - x overflows.
    """
    with np.errstate(over="ignore"):
        a = np.asarray(x, dtype=float) - v.center
        d = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    reach = v.support_radius + _REACH * 0.5 * math.sqrt(t)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(d))), reach)
    if not math.isfinite(scale):
        raise ValueError("the bridge endpoints are too far apart to represent their distance")
    a, d, reach = a / scale, d / scale, reach / scale
    # |a + u d| <= reach for u = s / t in [0, 1]
    aa, ad, dd = float(a @ a), float(a @ d), float(d @ d)
    if dd == 0.0:
        return (0.0, t) if aa <= reach * reach else None
    disc = ad * ad - dd * (aa - reach * reach)
    if disc < 0.0:
        return None
    lo = max(0.0, (-ad - math.sqrt(disc)) / dd)
    hi = min(1.0, (-ad + math.sqrt(disc)) / dd)
    return (lo * t, hi * t) if lo <= hi else None


def _bridge_cap(x, y, t: float) -> float:
    """The longest sigma panel of a bridge time rule, _SQRT_CAP t / |y - x|."""
    with np.errstate(over="ignore"):
        gap = float(np.linalg.norm(np.asarray(y, float) - np.asarray(x, float)))
    return _SQRT_CAP * t / gap if gap > 0 else math.inf


def _half_edges(lo: float, hi: float, base: float, cap: float):
    """Sigma edges over s = sigma^2 in [lo, hi], panels at most cap long.

    From lo = 0 the panels double from base; from lo > 0, where the start
    is out of reach, they are even.  More than _MAX_PANELS raises ValueError.
    """
    if hi <= lo:
        return []
    a, b = math.sqrt(lo), math.sqrt(hi)
    if not b - a <= _MAX_PANELS * cap:
        raise ValueError("the bridge endpoints are too far apart for so short a horizon: "
                         f"its time rule would need more than {_MAX_PANELS} panels")
    if lo == 0.0:
        return _log_edges(b, base, cap)
    return list(np.linspace(a, b, max(1, math.ceil((b - a) / cap)) + 1))


def _occupation_k1(v: Potential, x, horizon: float, y=None) -> float:
    """E int_0^horizon v(X_s) ds for free motion from x, or the bridge x -> y.

    The substitution s = sigma^2 turns the sqrt(s) layer of a start on a
    band edge into a smooth integrand, and doubling Gauss-Legendre panels
    in sigma follow the s^(-d/2) tail.  A bridge integrates its first half
    from x and its second half at s = horizon - sigma^2 from y, so the rule
    is symmetric under time reversal; both halves share their nodes unless
    the reach window cuts one of them.  Where the bridge's mean crosses a
    band edge, its one-point law changes over a sigma interval of about
    horizon / (2 |y - x|) at any s, which caps the bridge panels.
    """
    x = np.asarray(x, dtype=float)
    base = _SQRT_BASE * min(1.0, v.support_radius)
    if y is None:
        sigma, w = panel_rule(_log_edges(math.sqrt(horizon), base), _SQRT_NODES)
        s = sigma * sigma
        w = 2.0 * sigma * w
        return float(np.sum(w * _smear(v, np.broadcast_to(x, (s.size, v.dim)), s)))
    y = np.asarray(y, dtype=float)
    window = _reach_window(v, x, y, horizon)
    if window is None:
        return 0.0
    lo, hi = window
    half = horizon / 2.0
    cap = _bridge_cap(x, y, horizon)
    # s in [lo, hi] from x, and horizon - s in [horizon - hi, horizon - lo] from y
    edges = [_half_edges(lo, min(hi, half), base, cap),
             _half_edges(max(0.0, horizon - hi), min(half, horizon - lo), base, cap)]
    nodes = []
    for e in edges:
        sigma, w = panel_rule(e, _SQRT_NODES)
        s = sigma * sigma
        nodes.append((s, 2.0 * sigma * w, (s / horizon)[:, None], s * (horizon - s) / horizon))
    if edges[0] == edges[1]:
        s, w, frac, var = nodes[0]
        vals = _smear(v, x + frac * (y - x), var) + _smear(v, y + frac * (x - y), var)
        return float(np.sum(w * vals))
    total = 0.0
    for (s, w, frac, var), (start, end) in zip(nodes, ((x, y), (y, x))):
        if s.size:
            total += float(np.sum(w * _smear(v, start + frac * (end - start), var)))
    return total


# -- the tabulated tensor rule (bridge k = 3) ----------------------------------

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


def _box_nodes(v: Potential):
    lo, hi = v.support_box()
    x, w = np.polynomial.legendre.leggauss(_BOX_NODES)
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


# -- the tabulated pair rule ---------------------------------------------------

# The pair rule's time grid: doubling sigma panels from _PAIR_BASE times
# min(spacing, sqrt(t)), with Gauss-Legendre orders per panel from the
# innermost (the last repeats), in the lag up to t/2 and in s1 at each such
# lag.  Lags past t/2 leave s1 + (t - s2) < t/2, where s1 is near its start
# (and a bridge's s2 near its end) and the covariance is small: one panel in
# sqrt(t - lag) and fewer nodes in s1 hold the same accuracy there.
_PAIR_BASE = 0.75
_PAIR_LAG_ORDERS = (4, 4, 3)
_PAIR_TIME_ORDERS = (6, 5, 4)
_PAIR_FAR_LAG_ORDERS = (6,)
_PAIR_FAR_TIME_ORDERS = (4,)
# Phi(-8.3) < 6e-17: a cell edge this many standard deviations out is saturated
_SATURATED = 8.3
# floats of the pair rule's running contraction per chunk of time pairs
_PAIR_CHUNK = 2**14


def _graded_nodes(length: float, base: float, cap: float, orders) -> tuple:
    """s in (0, length / 2] on doubling sigma = sqrt(s) panels, and weights in s."""
    edges = _log_edges(math.sqrt(length / 2.0), base, cap)
    parts = [panel_rule(edges[j:j + 2], orders[min(j, len(orders) - 1)])
             for j in range(len(edges) - 1)]
    sigma = np.concatenate([p[0] for p in parts])
    w = np.concatenate([p[1] for p in parts])
    return sigma * sigma, 2.0 * sigma * w


def _pair_time_nodes(t: float, base: float, cap: float, bridge: bool) -> tuple:
    """(s1, lag, rest, weight) over the simplex s1 + lag + rest = t.

    The lag is graded in sqrt from 0 over [0, t/2] and taken on one panel
    in sqrt(t - lag) over [t/2, t] (panels no longer than cap).  At each
    lag, a bridge's s1 is graded in sqrt from both ends of its span t - lag,
    so the node set maps to itself under s1 <-> rest, which is time
    reversal; free motion's s1 is graded from 0 over the whole span.
    """
    near, w_near = _graded_nodes(t, base, cap, _PAIR_LAG_ORDERS)
    far, w_far = _graded_nodes(t, min(math.sqrt(t / 2.0), cap), cap, _PAIR_FAR_LAG_ORDERS)
    parts = []
    for lags, spans, weights, orders in ((near, t - near, w_near, _PAIR_TIME_ORDERS),
                                         (t - far, far, w_far, _PAIR_FAR_TIME_ORDERS)):
        for lag, span, wl in zip(lags, spans, weights):
            n = 2 if bridge else 1  # a bridge takes the mirror image s1 <-> rest too
            b, wb = _graded_nodes(2.0 * span / n, base, cap, orders)
            parts.append((np.concatenate([b, span - b][:n]), np.full(n * b.size, lag),
                          np.concatenate([span - b, b][:n]), np.tile(wl * wb, n)))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _cell_pair_masses(edges, mu1, mu2, sd1, sd2, rho, r) -> np.ndarray:
    """P(X1 in cell a, X2 in cell b) on one axis, per time pair: shape (P, n, n).

    (X1, X2) is bivariate normal with correlation rho >= 0 and
    r = sqrt(1 - rho^2).  Phi2 at the edge pairs is Owen's formula,
    Phi2(h, k) = (Phi(h) + Phi(k)) / 2 - T(h, a_h) - T(k, a_k) - [hk < 0] / 2
    (Owen 1956), except where it is min(Phi(h), Phi(k)) to 6e-17: an edge
    saturated on either axis, or one whose conditional law given the other
    lies _SATURATED standard deviations away.  The cell masses are the
    second differences.
    """
    h = (edges - mu1[:, None]) / sd1[:, None]
    k = (edges - mu2[:, None]) / sd2[:, None]
    hh, kk = h[:, :, None], k[:, None, :]
    rr, qq = rho[:, None, None], _SATURATED * r[:, None, None]
    cdf = np.minimum(special.ndtr(hh), special.ndtr(kk))
    live = np.nonzero((np.abs(hh) <= _SATURATED) & (np.abs(kk) <= _SATURATED)
                      & (kk - rr * hh <= qq) & (hh - rr * kk <= qq))
    p, i, j = live
    if p.size:
        # Phi2 is continuous, so an edge exactly at the mean reads just above it
        hl = np.where(h[p, i] == 0.0, 1e-100, h[p, i])
        kl = np.where(k[p, j] == 0.0, 1e-100, k[p, j])
        rl, ql = rho[p], r[p]
        val = 0.5 * (special.ndtr(hl) + special.ndtr(kl)) - 0.5 * (hl * kl < 0.0)
        val -= special.owens_t(hl, (kl - rl * hl) / (hl * ql))
        val -= special.owens_t(kl, (hl - rl * kl) / (kl * ql))
        cdf[live] = val
    return np.diff(np.diff(cdf, axis=1), axis=2)


def _pair_covariance(v: Potential, mu1, mu2, sd1, sd2, rho, r) -> np.ndarray:
    """Cov(v(X1), v(X2)) per row, X1 ~ N(mu1, sd1^2 I) and X2 ~ N(mu2, sd2^2 I).

    Each axis is correlated rho >= 0, r = sqrt(1 - rho^2).  E v(X1) v(X2)
    contracts the table with each axis's cell-pair masses in turn, as
    ``_tabulated_smear`` does with cell masses for k = 1.
    """
    shape = v.values.shape
    acc = np.broadcast_to(v.values, (rho.size, *shape))
    for axis in range(v.dim):
        edges = v.origin[axis] + v.spacing * np.arange(shape[axis] + 1)
        mass = _cell_pair_masses(edges, mu1[:, axis], mu2[:, axis], sd1, sd2, rho, r)
        # contract the leading table axis; its cell-pair index goes last
        acc = mass @ acc.reshape(rho.size, shape[axis], -1)
        acc = np.moveaxis(acc.reshape(rho.size, shape[axis], *shape[axis + 1:],
                                      *shape[:axis]), 1, -1)
    joint = acc.reshape(rho.size, -1) @ v.values.ravel()
    return joint - _tabulated_smear(v, mu1, sd1 * sd1) * _tabulated_smear(v, mu2, sd2 * sd2)


def _pair_sum(v: Potential, w, *law) -> float:
    """sum_i w_i Cov(v(X1_i), v(X2_i)) for the pair law ``law`` of ``_pair_covariance``.

    The time pairs go in chunks that keep the running contraction small.
    """
    chunk = max(1, _PAIR_CHUNK // v.values.size)
    return sum(float(w[i:i + chunk] @ _pair_covariance(v, *(a[i:i + chunk] for a in law)))
               for i in range(0, w.size, chunk))


def _moment_bridge_pair(x, y, t: float, v: Potential) -> float:
    """E Z(t)^2 of a tabulated v along the bridge x -> y: the pair rule.

    E Z^2 = (E Z)^2 + 2 int int_{s1 < s2} Cov(v(X_s1), v(X_s2)); the
    covariance vanishes as either time reaches its endpoint, which leaves
    the time rule only the endpoint layers' remainders to resolve.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if _reach_window(v, x, y, t) is None:
        return 0.0
    cap = _bridge_cap(x, y, t)
    if not math.sqrt(t / 2.0) <= _PAIR_MAX_PANELS * cap:
        raise ValueError("the bridge endpoints are too far apart for so short a horizon: "
                         f"the k = 2 pair rule would need more than {_PAIR_MAX_PANELS} "
                         "panels per time axis")
    m1 = _occupation_k1(v, x, t, y)
    base = min(_PAIR_BASE * min(v.spacing, math.sqrt(t)), cap)
    s1, lag, rest, w = _pair_time_nodes(t, base, cap, True)
    # s2 = s1 + lag = t - rest along the bridge x -> y
    s2 = s1 + lag
    u1 = lag + rest  # t - s1
    law = (x + (s1 / t)[:, None] * (y - x), y + (rest / t)[:, None] * (x - y),
           np.sqrt(s1 * u1 / t), np.sqrt(s2 * rest / t), np.sqrt(s1 * rest / (s2 * u1)),
           np.sqrt(t * lag / (s2 * u1)))  # sqrt(1 - rho^2), without its cancellation
    return 2.0 * _pair_sum(v, w, *law) + m1 * m1


def _moment_free_pair(x, horizon: float, v: Potential) -> float:
    """E Y(horizon)^2 of a tabulated v for free motion from x: the pair rule.

    The law of ``_moment_bridge_pair`` with free covariances, sd_i =
    sqrt(s_i) and rho = sqrt(s1 / s2), and s1 graded in sqrt from 0 alone.
    """
    m1 = _occupation_k1(v, x, horizon)
    base = _PAIR_BASE * min(v.spacing, math.sqrt(horizon))
    s1, lag, _, w = _pair_time_nodes(horizon, base, math.inf, False)
    s2 = s1 + lag
    mu = np.broadcast_to(x, (s1.size, v.dim))
    law = (mu, mu, np.sqrt(s1), np.sqrt(s2), np.sqrt(s1 / s2), np.sqrt(lag / s2))
    return 2.0 * _pair_sum(v, w, *law) + m1 * m1


# -- public operations --------------------------------------------------------

def _radial_moment(x, y, t: float, v: Potential, k: int) -> float:
    """E Z(t)^k, k = 2 or 3, of a radial v in d >= 3 from Kac's resolvent; y None is free."""
    if v.dim < 3:
        raise ValueError("moments k >= 2 of a radial potential at a finite horizon need d >= 3")
    moments, errors = resolvent_moments(x, y, t, v)
    if not errors[k - 1] <= DEFAULT.tolerance(k, v):
        raise ValueError(
            f"the k = {k} oracle loses its declared accuracy over t = {t} (rounding "
            f"estimate {errors[k - 1]:.1e} relative): the path's ends are too far from "
            "each other, or from the support, for so short a horizon")
    return float(moments[k - 1])


def moment_free(x, horizon: float, v: Potential, k: int) -> float:
    """E[(int_0^horizon v(W_s) ds)^k] for Brownian motion started at x.

    horizon may be inf (d >= 3 required there).  Infinite-horizon moments
    come from the Green chain (``green.green_chain`` for a radial v,
    ``green.cell_chain`` for a tabulated one); a finite-horizon first moment
    from the sqrt(s) time rule, and a second from Kac's resolvent applied to
    1 (radial v, d >= 3) or the pair rule (tabulated v).  At a finite
    horizon, a start more than _REACH sqrt(horizon) from the support ball
    gives 0.0.  A radial call whose rounding estimate exceeds the declared
    tolerance raises ValueError.
    """
    _check_order(k)
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
            return green_chain(v, float(np.linalg.norm(np.asarray(x, float) - v.center)), k)
        return cell_chain(v, x, k)
    with np.errstate(over="ignore"):
        gap = float(np.linalg.norm(np.asarray(x, float) - v.center)) - v.support_radius
    if gap > _REACH * math.sqrt(horizon):
        return 0.0  # the one-point law misses the support by over _REACH s.d. up to the horizon
    if k == 1:
        return _occupation_k1(v, x, horizon)
    if k == 2:
        return _radial_moment(x, None, horizon, v, 2) if v.is_radial else \
            _moment_free_pair(x, horizon, v)
    raise ValueError("finite-horizon k=3 free moments are not supported; "
                     "use the infinite-horizon Green chain or Monte Carlo")


def moment_bridge(x, y, t: float, v: Potential, k: int) -> float:
    """E[(int_0^t v(X_s) ds)^k] for the bridge from x to y over [0, t].

    The result is symmetric under the time reversal (x, y) <-> (y, x),
    which the bridge law satisfies exactly.  k = 1 is the sqrt(s) time rule,
    which treats both endpoints alike.  k = 2 and 3 of a radial v (d >= 3)
    come from Kac's resolvent, which reads the endpoints only through their
    distances to the centre and the angle between them; a geometry whose
    rounding estimate exceeds the declared tolerance raises ValueError.
    k = 2 of a tabulated v is the pair rule, whose node set is symmetric
    under time reversal; k = 3 averages the tensor rule over both
    orientations.  Endpoints too far apart for the horizon raise ValueError.
    """
    _check_order(k)
    if not (t > 0) or not math.isfinite(t):
        raise ValueError("bridge horizon must be positive and finite")
    if k == 0:
        return 1.0
    if v.is_zero:
        return 0.0
    if k == 1:
        return _occupation_k1(v, x, t, y)
    if v.is_radial:
        return _radial_moment(x, y, t, v, k)
    if k == 2:
        return _moment_bridge_pair(x, y, t, v)
    forward = _moment_bridge_tensor(x, y, t, v, k)
    if np.array_equal(np.asarray(x, float), np.asarray(y, float)):
        return forward  # both orientations are the same call
    return 0.5 * (forward + _moment_bridge_tensor(y, x, t, v, k))


def moment_two_sided(x, y, v: Potential, k: int, horizon: float = math.inf) -> float:
    """E[(Y_x(h) + Y'_y(h))^k] for independent one-sided integrals to horizon h.

    Binomial expansion over the one-sided moments of ``moment_free``; the
    default horizon is infinite.
    """
    _check_order(k)
    total = 0.0
    for j in range(k + 1):
        total += math.comb(k, j) * moment_free(x, horizon, v, j) * \
            moment_free(y, horizon, v, k - j)
    return total


def horizon_moment_gap(x, y, t: float, u: float, v: Potential, k: int) -> float:
    """Difference of k-th two-sided moments between horizons t and u, over k!.

    Computes [E(Y_x(t) + Y'_y(t))^k - E(Y_x(u) + Y'_y(u))^k] / k!.
    Nonnegative for v >= 0, shrinking as u grows toward t.
    """
    _check_order(k)
    if not (0.0 < u <= t):
        raise ValueError("the comparison horizon must satisfy 0 < u <= t")
    if u == t:
        return 0.0
    return (moment_two_sided(x, y, v, k, t)
            - moment_two_sided(x, y, v, k, u)) / math.factorial(k)
