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
* free second moments at a finite horizon run over panel-refined pair
  grids that resolve the boundary layer at the start and the long
  polynomial tail;
* tabulated potentials take tensor-product Gauss-Legendre rules for
  k >= 2, with a correspondingly coarser declared tolerance.

Infinite-horizon moments of a radial potential come from the Green chain,
and its bridge moments k = 2 and 3 from Kac's resolvent (``green``).
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special

from .green import (
    cell_green_kernel,
    green_chain,
    green_constant,
    green_potential,
    panel_rule,
    radial_rule,
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


class QuadConfig:
    """The declared relative tolerances of the oracles, per moment order."""

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
    sigma, w = panel_rule(_log_edges(math.sqrt(half), base, cap), _SQRT_NODES)
    s = sigma * sigma
    w = 2.0 * sigma * w
    if y is None:
        return float(np.sum(w * _smear(v, np.broadcast_to(x, (s.size, v.dim)), s)))
    frac = (s / horizon)[:, None]
    var = s * (horizon - s) / horizon
    vals = _smear(v, x + frac * (y - x), var) + _smear(v, y + frac * (x - y), var)
    return float(np.sum(w * vals))


# -- infinite-horizon moments -----------------------------------------------

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


# -- finite-horizon second moments -------------------------------------------

def _pair_nodes(t: float, base: float, m: int):
    """Ordered (s1, delta) nodes and weights over {s1 >= 0, delta > 0, s1 + delta <= t}."""
    s1, ws = panel_rule(_log_edges(t, base), m)
    out_s, out_d, out_w = [], [], []
    for s, w in zip(s1, ws):
        rem = t - s
        if rem <= 0:
            continue
        dd, wd = panel_rule(_log_edges(rem, base), m)
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
    u, wu = radial_rule(v)
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

def _radial_bridge_moment(x, y, t: float, v: Potential, k: int) -> float:
    """E Z(t)^k, k = 2 or 3, for a radial v in d >= 3, from Kac's resolvent."""
    if v.dim < 3:
        raise ValueError("bridge moments k >= 2 of a radial potential need d >= 3")
    moments, _, errors = resolvent_moments(x, y, t, v)
    if not errors[k - 1] <= DEFAULT.tolerance(k, v, bridge=True):
        raise ValueError(
            f"the bridge k = {k} oracle loses its declared accuracy over t = {t} "
            f"(rounding estimate {errors[k - 1]:.1e} relative): the endpoints are "
            "too far from each other, and from the support, for so short a horizon")
    return float(moments[k - 1])


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


# -- public operations --------------------------------------------------------

def moment_free(x, horizon: float, v: Potential, k: int) -> float:
    """E[(int_0^horizon v(W_s) ds)^k] for Brownian motion started at x.

    horizon may be inf (d >= 3 required there).  Infinite-horizon moments
    of a radial v come from the Green chain; a finite-horizon first moment
    from the sqrt(s) time rule, and a second from the pair-correlation form.
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


def moment_bridge(x, y, t: float, v: Potential, k: int) -> float:
    """E[(int_0^t v(X_s) ds)^k] for the bridge from x to y over [0, t].

    The result is symmetric under the time reversal (x, y) <-> (y, x),
    which the bridge law satisfies exactly.  k = 1 is the sqrt(s) time rule,
    which treats both endpoints alike.  k = 2 and 3 of a radial v (d >= 3)
    come from Kac's resolvent, which reads the endpoints only through their
    distances to the centre and the angle between them; a geometry whose
    rounding estimate exceeds the declared tolerance raises ValueError.
    Tabulated v average the tensor rule over both orientations.
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
        return _radial_bridge_moment(x, y, t, v, k)
    forward = _moment_bridge_tensor(x, y, t, v, k)
    if np.array_equal(np.asarray(x, float), np.asarray(y, float)):
        return forward  # both orientations are the same call
    return 0.5 * (forward + _moment_bridge_tensor(y, x, t, v, k))


def _two_sided_moment(x, y, horizon: float, v: Potential, k: int) -> float:
    """E[(Y_x(h) + Y'_y(h))^k] by the binomial sum over one-sided moments."""
    total = 0.0
    for j in range(k + 1):
        total += math.comb(k, j) * moment_free(x, horizon, v, j) * \
            moment_free(y, horizon, v, k - j)
    return total


def moment_two_sided(x, y, v: Potential, k: int) -> float:
    """E[(Y_x + Y'_y)^k] for independent infinite-horizon one-sided integrals.

    Binomial expansion over the one-sided moments.
    """
    _check_order(k)
    return _two_sided_moment(x, y, math.inf, v, k)


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
    return (_two_sided_moment(x, y, t, v, k)
            - _two_sided_moment(x, y, u, v, k)) / math.factorial(k)
