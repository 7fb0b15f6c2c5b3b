"""Moment oracles: exact Green reductions, time rules, Monte Carlo agreement.

Frozen constants were computed with 30-digit mpmath quadrature of the
one-dimensional closed forms; Monte Carlo cross-checks use the samplers as
the independent route.
"""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from bridgeint import estimators, green, quadrature
from bridgeint.estimators import EstimatorConfig, mc_moment
from bridgeint.green import MGF_TOLERANCE, alpha1_interval, mgf_one_sided
from bridgeint.potentials import Potential
from bridgeint.quadrature import (
    QuadConfig,
    horizon_moment_gap,
    moment_bridge,
    moment_free,
    moment_two_sided,
    radial_ball_cdf,
    radial_expectation,
)

BALL = Potential.ball_indicator(3, 1.0)
BALL4 = Potential.ball_indicator(4, 1.0)
STEP = Potential.radial_step(3, [0.6, 1.2], [1.2, 0.4])
SIGNED = Potential.radial_step(3, [0.5, 1.0], [1.0, -0.5])
ZERO = Potential.ball_indicator(3, 1.0, height=0.0)
CFG = QuadConfig()

# frozen via mpmath
EY0_T1 = 0.5160585509617133
EY0_T10 = 0.8334553967270845
EY0_T100 = 0.946860831311503
EZ_BRIDGE_T10 = 1.812692469220181


class TestQuadConfig:
    def test_orders_zero_to_three(self):
        # every oracle takes k = 0..3 and nothing past it
        assert moment_two_sided([0, 0, 0], [0, 0, 0], BALL, 3) > 0.0
        for k in (-1, 4):
            for call in (lambda: moment_free([0, 0, 0], math.inf, BALL, k),
                         lambda: moment_bridge([0, 0, 0], [0, 0, 0], 1.0, BALL, k),
                         lambda: moment_two_sided([0, 0, 0], [0, 0, 0], BALL, k),
                         lambda: horizon_moment_gap([0, 0, 0], [0, 0, 0], 2.0, 1.0, BALL, k)):
                with pytest.raises(ValueError, match="must lie in 0..3"):
                    call()


class TestSimplexRule:
    """The chain law's nested time rule over the ordered simplex 0 < s1 < s2 < s3 < t."""

    @staticmethod
    def _nested(t):
        """s2 nodes and weights, with the s1 rule over (0, s2) and the s3 rule over (s2, t)."""
        base = quadrature._CHAIN_BASE * min(0.4, math.sqrt(t))
        s2, w2 = quadrature._two_ended_nodes(t, base, math.inf)
        return s2, w2, [(quadrature._two_ended_nodes(s, base, math.inf),
                         quadrature._two_ended_nodes(t - s, base, math.inf)) for s in s2]

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("t", [0.5, 2.0, 17.0])
    def test_volume(self, k, t):
        # integrating 1 over {0 < s_1 < ... < s_k < t} yields t^k / k!
        s2, w2, inner = self._nested(t)
        factor = {1: lambda a, b: 1.0, 2: lambda a, b: a[1].sum(),
                  3: lambda a, b: a[1].sum() * b[1].sum()}[k]
        total = sum(w * factor(a, b) for w, (a, b) in zip(w2, inner))
        assert total == pytest.approx(t**k / math.factorial(k), rel=1e-12)

    def test_nodes_ordered(self):
        s2, _, inner = self._nested(5.0)
        assert np.all(s2 > 0) and np.all(s2 < 5.0)
        for s, ((s1, _), (u, _)) in zip(s2, inner):
            assert np.all(s1 > 0) and np.all(s1 < s)
            assert np.all(u > 0) and np.all(s + u < 5.0)


# (r, b, var, d, P(|Z| <= r) for Z ~ N(b e1, var I_d)), from 60-digit mpmath:
# the d = 3 closed form, checked against quadrature of the radial density,
# and for d = 5 quadrature of the Bessel form of the density.  The d = 3 rows
# cover b = 0, a = r / sqrt(var) on both sides of the series threshold 0.1,
# noncentralities b^2 / var above 1e7, and lower tails below 1e-30.
_BALL_CDF_REFS = [
    (1.0, 0.0, 0.5, 3, 0.42759329552912017),
    (0.3, 0.0, 4.0, 3, 0.00089158546811836719),
    (0.0995, 0.0, 1.0, 3, 0.00026121524931356831),
    (0.098, 0.3, 1.0, 3, 0.00023863841393516592),
    (0.09, 13.0, 1.0, 3, 4.435213104423596e-41),
    (1.0, 0.7, 600.0, 3, 1.8079962130360694e-5),
    (0.05, 0.1, 625.0, 3, 2.1276725874770355e-9),
    (0.02, 3.0, 1.0, 3, 2.3642197710662961e-8),
    (0.101, 0.3, 1.0, 3, 0.00026118656922626433),
    (0.105, 9.0, 1.0, 3, 8.6357922636746117e-22),
    (1.0, 1.000002, 1e-12, 3, 0.022750077954215589),
    (5000.0, 4998.0, 1.0, 3, 0.97723906553751243),
    (2.0, 15.0, 1.0, 3, 7.8461256154533868e-40),
    (500.0, 511.5, 1.0, 3, 6.4463744683700347e-31),
    (0.5, 13.5, 1.0, 3, 1.9210713124178819e-40),
    (0.8, 0.8, 0.37, 3, 0.20194054641395071),
    (1.0, 2.0, 0.3, 3, 0.013309014904178137),
    (1.2, 0.5, 10.0, 3, 0.013753231163372952),
    (0.6, 1.5, 2.0, 3, 0.011188841137662363),
    (1.0, 0.8, 0.37, 5, 0.14370076759970104),
    (2.0, 1.0, 1.5, 5, 0.19977525769380379),
    (1.0, 0.0, 0.7, 5, 0.078837461800968219),
]


class TestRadialPrimitives:
    def test_ball_cdf_against_sampling(self):
        rng = np.random.default_rng(3)
        b, var, r = 0.8, 0.37, 1.0
        z = rng.normal(size=(400_000, 3)) * math.sqrt(var)
        z[:, 0] += b
        emp = float(np.mean(np.sum(z * z, axis=1) <= r * r))
        val = float(radial_ball_cdf(r, b, var, 3))
        assert val == pytest.approx(emp, abs=4.0 * math.sqrt(emp * (1 - emp) / 400_000))

    def test_ball_cdf_guards(self):
        assert radial_ball_cdf(1.0, 5.0, 1e-8, 3) == 0.0
        assert radial_ball_cdf(1.0, 0.5, 1e-10, 3) == 1.0
        assert radial_ball_cdf(1.0, 1.5, 0.0, 3) == 0.0
        assert radial_ball_cdf(1.5, 1.5, 0.0, 3) == 1.0
        # noncentrality 1e12: d = 3 uses its closed form, d = 5 the normal
        # approximation; both stay inside [0, 1]
        for d in (3, 5):
            assert 0.0 <= radial_ball_cdf(1.0, 1.0 + 1e-5, 1e-12, d) <= 1.0

    @pytest.mark.parametrize("r, b, var, d, ref", _BALL_CDF_REFS,
                             ids=[f"d{d}-a{r / math.sqrt(var):.3g}-mu{b / math.sqrt(var):.3g}"
                                  for r, b, var, d, _ in _BALL_CDF_REFS])
    def test_ball_cdf_reference_values(self, r, b, var, d, ref):
        assert float(radial_ball_cdf(r, b, var, d)) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_ball_cdf_normal_branch_d5(self):
        # noncentrality 2.5e7 > 1e7: a mean-corrected normal approximation
        ref = 0.84124792873644028  # mpmath, 60 digits
        assert float(radial_ball_cdf(5000.0, 4999.0, 1.0, 5)) == pytest.approx(ref, rel=1e-7)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(b=st.floats(0.0, 20.0), log_var=st.floats(-3.0, 2.0),
           r1=st.floats(0.0, 30.0), r2=st.floats(0.0, 30.0))
    def test_ball_cdf_d3_properties(self, b, log_var, r1, r2):
        # in [0, 1], nondecreasing in r (to rounding), and its increments
        # are the integrals of the radial density
        var = 10.0**log_var
        r1, r2 = min(r1, r2), max(r1, r2)
        f1, f2 = (float(radial_ball_cdf(r, b, var, 3)) for r in (r1, r2))
        assert 0.0 <= f1 <= 1.0 and 0.0 <= f2 <= 1.0
        assert f2 >= f1 - 1e-15
        inner = [p for p in (b - 3.0 * math.sqrt(var), b, b + 3.0 * math.sqrt(var)) if r1 < p < r2]
        mass, _ = integrate.quad(_radial_density3, r1, r2, args=(b, var),
                                 points=inner or None, epsabs=1e-13, epsrel=1e-13, limit=200)
        assert f2 - f1 == pytest.approx(mass, abs=1e-10)

    def test_expectation_interpolates_profile(self):
        # vanishing variance recovers the raw profile
        for b in (0.0, 0.5, 0.99, 1.01, 2.0):
            assert radial_expectation(BALL, b, 1e-14) == pytest.approx(
                BALL.profile(b), abs=1e-10)

    def test_expectation_shares_band_edges_exactly(self):
        # one CDF per band edge gives the per-band sum bit for bit
        v = Potential.radial_step(3, [0.4, 0.9, 1.3], [1.0, -0.5, 0.7])
        b, var = np.meshgrid([0.0, 0.3, 0.9, 1.6, 40.0], [0.0, 1e-9, 0.05, 0.8, 30.0])
        per_band = 0.0
        for lo, hi, h in v.bands():
            lower = radial_ball_cdf(lo, b, var, 3) if lo > 0 else 0.0
            per_band = per_band + h * (radial_ball_cdf(hi, b, var, 3) - lower)
        assert np.array_equal(radial_expectation(v, b, var), per_band)


def _radial_density3(u, b, var):
    """Density of |Z| at u for Z ~ N(b e1, var I_3), the reference for the ball CDF.

    exp(-(u - b)^2 / 2 var) - exp(-(u + b)^2 / 2 var), over b, without its
    cancellation at small u b / var; the chi law with 3 degrees at b = 0.
    """
    sigma = math.sqrt(var)
    if b < 1e-12 * sigma:
        return math.sqrt(2.0 / math.pi) * u * u / sigma**3 * math.exp(-u * u / (2.0 * var))
    return (u / (b * sigma * math.sqrt(2.0 * math.pi)) * math.exp(-((u - b) ** 2) / (2.0 * var))
            * -math.expm1(-2.0 * u * b / var))


class TestFreeMoments:
    def test_flagship_first_moment(self):
        assert moment_free([0, 0, 0], math.inf, BALL, 1) == pytest.approx(1.0, abs=1e-9)

    def test_finite_horizon_frozen_values(self):
        assert moment_free([0, 0, 0], 1.0, BALL, 1) == pytest.approx(EY0_T1, rel=1e-10)
        assert moment_free([0, 0, 0], 10.0, BALL, 1) == pytest.approx(EY0_T10, rel=1e-10)
        assert moment_free([0, 0, 0], 100.0, BALL, 1) == pytest.approx(EY0_T100, rel=1e-10)

    def test_far_field_decay(self):
        near = moment_free([10.0, 0, 0], math.inf, BALL, 1)
        far = moment_free([20.0, 0, 0], math.inf, BALL, 1)
        assert far / near == pytest.approx(0.5, rel=1e-12)
        assert near == pytest.approx((4.0 / 3.0) / (2.0 * 10.0), rel=1e-12)

    def test_second_moment_infinite_horizon(self):
        assert moment_free([0, 0, 0], math.inf, BALL, 2) == pytest.approx(5.0 / 3.0, rel=1e-9)

    def test_second_moment_converges_to_infinite_horizon(self):
        vals = [moment_free([0, 0, 0], T, BALL, 2) for T in (100.0, 400.0, 1600.0)]
        lim = 5.0 / 3.0
        gaps = [abs(v - lim) for v in vals]
        assert gaps[0] > gaps[1] > gaps[2]
        assert all(v < lim for v in vals)

    def test_second_moment_against_mc(self):
        T = 50.0
        q = moment_free([0, 0, 0], T, BALL, 2)
        est = mc_moment("free", 2, 40_000,
                        EstimatorConfig(potential=BALL, x=np.zeros(3), free_horizon=T,
                                        h_fine=0.004, seed=14))
        # MC carries a discretization bias of order h; allow it on top of 3 SE
        assert abs(est.mean - q) < 3.0 * est.std_error + 0.02

    def test_zero_potential(self):
        assert moment_free([0, 0, 0], math.inf, ZERO, 1) == 0.0
        assert moment_free([0, 0, 0], 5.0, ZERO, 2) == 0.0

    def test_k0_is_one(self):
        assert moment_free([0, 0, 0], 2.0, BALL, 0) == 1.0

    def test_order_gating(self):
        # k = 3 is computed at a finite horizon too; k = 4 is refused at either
        assert moment_free([0, 0, 0], 1.0, BALL, 3) > 0.0
        for horizon in (1.0, math.inf):
            with pytest.raises(ValueError, match="must lie in 0..3"):
                moment_free([0, 0, 0], horizon, BALL, 4)

    def test_third_moment_green_chain_vs_mc(self):
        q3 = moment_free([0, 0, 0], math.inf, BALL, 3)
        est = mc_moment("free", 3, 60_000,
                        EstimatorConfig(potential=BALL, x=np.zeros(3), free_horizon=2000.0,
                                        h_fine=0.01, seed=15, workers=2))
        assert abs(est.mean - q3) < 3.0 * est.std_error + 0.08

    @pytest.mark.parametrize("b, exact", [(0.0, 61.0 / 15.0), (0.5, 24611.0 / 6720.0)])
    def test_third_moment_green_chain_closed_form(self, b, exact):
        # the Kac hierarchy for the d = 3 unit ball, solved exactly:
        # m_1 = 1 - r^2/3 inside, and m_3 at r = 0 and r = 1/2
        q3 = moment_free([b, 0, 0], math.inf, BALL, 3)
        tol = CFG.tolerance(3, BALL, infinite_horizon=True)
        assert q3 == pytest.approx(exact, rel=tol)


def _adaptive_k1(v, x, t, y=None):
    """Adaptive quadrature of the one-point law over s, split at t / 2.

    Free motion from x when y is None, else the bridge from x to y.
    """
    x = np.asarray(x, dtype=float)
    y = None if y is None else np.asarray(y, dtype=float)

    def law(s):
        if y is None:
            return float(quadrature._smear(v, x[None, :], np.array([s]))[0])
        mu = x + (s / t) * (y - x)
        return float(quadrature._smear(v, mu[None, :], np.array([s * (t - s) / t]))[0])

    return sum(integrate.quad(law, a, b, epsabs=0.0, epsrel=1e-12, limit=500)[0]
               for a, b in ((0.0, t / 2.0), (t / 2.0, t)))


class TestFirstMomentTimeRule:
    def test_small_horizon_inside_a_large_ball(self):
        # the path cannot leave a radius-3 ball in time 0.01: the integral is h
        big = Potential.ball_indicator(3, 3.0)
        assert moment_free([0, 0, 0], 0.01, big, 1) == pytest.approx(
            0.01, rel=CFG.tolerance(1, big))

    @pytest.mark.parametrize("v, x, y, t", [
        (SIGNED, [0.5, 0, 0], [1.0, 0, 0], 3.0),
        (BALL, [1.0, 0, 0], [1.0, 0, 0], 4.0),
        (BALL4, [1.0, 0, 0, 0], [-1.0, 0, 0, 0], 4.0),
        (BALL, [-10.0, 0.3, 0], [10.0, 0.2, 0], 0.1),
    ], ids=["edge_signed_step", "edge_ball_loop", "edge_ball_d4", "fast_crossing"])
    def test_bridge_against_adaptive_quadrature(self, v, x, y, t):
        # endpoints on a band edge, and a bridge that crosses the ball at speed 200
        assert moment_bridge(x, y, t, v, 1) == pytest.approx(
            _adaptive_k1(v, x, t, y), rel=CFG.tolerance(1, v))

    def test_free_start_next_to_a_band_edge(self):
        # the one-point law turns over at sigma ~ 3e-4, deep inside the
        # first sigma panels
        v = Potential.radial_step(5, [0.6, 1.2], [1.2, 0.4])
        x = [1.2003, 0, 0, 0, 0]
        assert moment_free(x, 0.01, v, 1) == pytest.approx(
            _adaptive_k1(v, x, 0.01), rel=CFG.tolerance(1, v))

    def test_green_chain_fourth_moment(self):
        # the Kac hierarchy for the d = 3 unit ball gives E Y^4 = 277/21 at the center
        assert green.green_chain(BALL, 0.0, 4) == pytest.approx(277.0 / 21.0, rel=1e-13)


@st.composite
def _radial_case(draw):
    """A radial potential, two points near its support and a horizon."""
    v = draw(st.sampled_from([BALL, STEP, SIGNED, BALL4]))
    point = st.lists(st.floats(-1.5, 1.5), min_size=v.dim, max_size=v.dim).map(np.array)
    return v, draw(point), draw(point), draw(st.floats(0.01, 30.0))


_PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


class TestOracleInvariants:
    @_PROPERTY
    @given(_radial_case())
    def test_bridge_time_reversal(self, case):
        v, x, y, t = case
        assert moment_bridge(x, y, t, v, 1) == moment_bridge(y, x, t, v, 1)

    @_PROPERTY
    @given(_radial_case(), st.floats(0.25, 4.0))
    def test_brownian_scaling(self, case, lam):
        # z -> lam z with time lam^2 s maps each k = 1 law onto the zoomed potential
        v, x, y, t = case
        zoom = v.dilated(lam)
        tol = CFG.tolerance(1, v)
        bridge = moment_bridge(x, y, t, v, 1)
        assert moment_bridge(lam * x, lam * y, lam * lam * t, zoom, 1) == \
            pytest.approx(lam * lam * bridge, rel=tol, abs=1e-12)
        free = moment_free(x, t, v, 1)
        assert moment_free(lam * x, lam * lam * t, zoom, 1) == \
            pytest.approx(lam * lam * free, rel=tol, abs=1e-12)
        # finite free k = 2 scales by lam^4, for v and for a table of its dimension
        for w in (v, {3: FACE_TABLE, 4: TABLE4}[v.dim]):
            try:
                free2 = moment_free(x, t, w, 2)
            except ValueError:  # a start the resolvent refuses at so short a horizon
                continue
            assert moment_free(lam * x, lam * lam * t, w.dilated(lam), 2) == \
                pytest.approx(lam**4 * free2, rel=CFG.tolerance(2, w), abs=1e-12)

    @_PROPERTY
    @given(_radial_case(), st.floats(-3.0, 3.0))
    def test_height_linearity(self, case, c):
        v, x, y, t = case
        scaled = v.with_height_factor(c)
        for k, q in ((1, lambda w: moment_bridge(x, y, t, w, 1)),
                     (1, lambda w: moment_free(x, t, w, 1)),
                     (2, lambda w: moment_free(x, math.inf, w, 2))):
            assert q(scaled) == pytest.approx(c**k * q(v), rel=1e-12, abs=1e-15)

    @_PROPERTY
    @given(_radial_case())
    def test_order_zero_is_one(self, case):
        v, x, y, t = case
        for w in (v, v.with_height_factor(0.0)):
            assert moment_bridge(x, y, t, w, 0) == 1.0
            assert moment_free(x, t, w, 0) == 1.0
            assert moment_free(x, math.inf, w, 0) == 1.0
            assert moment_two_sided(x, y, w, 0) == 1.0


def _ball_gauge(alpha: float, r: float) -> float:
    """The d = 3 unit-ball gauge in closed form: sin or sinh inside, 1 + B/r outside."""
    k = math.sqrt(2.0 * abs(alpha))
    if r >= 1.0:
        ratio = math.tan(k) / k if alpha > 0 else math.tanh(k) / k
        return 1.0 + (ratio - 1.0) / r
    if alpha > 0:
        return 1.0 / math.cos(k) if r == 0.0 else math.sin(k * r) / (k * r * math.cos(k))
    # sinh(k r) / cosh(k), written so that k = 141 does not overflow
    if r == 0.0:
        return 2.0 * math.exp(-k) / (1.0 + math.exp(-2.0 * k))
    return (math.exp(k * (r - 1.0)) - math.exp(-k * (r + 1.0))) / (
        k * r * (1.0 + math.exp(-2.0 * k)))


def _richardson(f, h):
    """f'(0) and f''(0) from central differences at h and h/2, Richardson-extrapolated."""
    def first(s):
        return (f(s) - f(-s)) / (2.0 * s)

    def second(s):
        return (f(s) - 2.0 * f(0.0) + f(-s)) / (s * s)
    return ((4.0 * first(h / 2) - first(h)) / 3.0,
            (4.0 * second(h / 2) - second(h)) / 3.0)


SIGNED4 = Potential.radial_step(4, [0.5, 1.0], [1.0, -0.5])
BALL5 = Potential.ball_indicator(5, 1.3, height=0.7)


class TestOneSidedMgf:
    """The exact infinite-horizon mgf of a radial potential: the gauge."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, -0.5, -1.0, -1e4])
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.999, 1.0, 1.5, 4.0])
    def test_unit_ball_closed_form(self, alpha, r):
        u = mgf_one_sided([r, 0.0, 0.0], BALL, alpha)
        assert u == pytest.approx(_ball_gauge(alpha, r), rel=1e-12)

    def test_trivial_and_rejected_cases(self):
        assert mgf_one_sided([0, 0, 0], BALL, 0.0) == 1.0
        assert mgf_one_sided([0, 0, 0], ZERO, 5.0) == 1.0
        assert alpha1_interval(ZERO) == (-math.inf, math.inf)
        with pytest.raises(ValueError):
            mgf_one_sided(np.zeros(2), Potential.ball_indicator(2, 1.0), 0.1)
        # a table takes the cell gauge
        table = Potential.tabulated(3, [0, 0, 0], 0.5, np.ones((2, 2, 2)))
        assert 1.0 < mgf_one_sided(np.zeros(3), table, 0.1) < math.inf

    @pytest.mark.parametrize("v", [BALL, STEP, SIGNED, SIGNED4, BALL4, BALL5],
                             ids=["ball", "step", "signed", "signed_d4", "ball_d4", "ball_d5"])
    @pytest.mark.parametrize("rho", [0.0, 0.7, 2.0])
    def test_derivatives_are_the_green_chain_moments(self, v, rho):
        # d/dalpha and d^2/dalpha^2 at 0 are E Y and E Y^2
        x = np.zeros(v.dim)
        x[0] = rho
        d1, d2 = _richardson(lambda a: mgf_one_sided(x, v, a), 4e-3)
        for k, fd in ((1, d1), (2, d2)):
            m = moment_free(x, math.inf, v, k)
            assert fd == pytest.approx(m, rel=CFG.tolerance(k, v, infinite_horizon=True))

    def test_infinite_from_the_first_blow_up_on(self):
        alpha1 = math.pi**2 / 8.0
        assert alpha1_interval(BALL) == (-math.inf, pytest.approx(alpha1, rel=1e-14))
        for r in (0.0, 0.5, 3.0):
            x = [r, 0.0, 0.0]
            assert math.isfinite(mgf_one_sided(x, BALL, alpha1 * (1.0 - 1e-9)))
            assert mgf_one_sided(x, BALL, np.nextafter(alpha1, math.inf)) == math.inf
            assert mgf_one_sided(x, BALL, 1.5 * alpha1) == math.inf
            # cos(sqrt(2 alpha)) = 1 > 0 again, past the second zero: still infinite
            assert mgf_one_sided(x, BALL, 2.0 * math.pi**2) == math.inf

    @pytest.mark.parametrize("v", [SIGNED, SIGNED4])
    def test_sign_changing_potential_blows_up_on_both_sides(self, v):
        lo, hi = alpha1_interval(v)
        assert -math.inf < lo < 0.0 < hi < math.inf
        x = np.zeros(v.dim)
        assert math.isfinite(mgf_one_sided(x, v, 0.99 * lo))
        assert mgf_one_sided(x, v, lo) == math.inf
        assert mgf_one_sided(x, v, 1.01 * lo) == math.inf
        # the negative side of v -v is the positive side of v
        assert alpha1_interval(v.with_height_factor(-1.0)) == (-hi, -lo)

    @pytest.mark.parametrize("d, j", [(3, math.pi / 2.0), (4, special.jn_zeros(0, 1)[0]),
                                      (5, math.pi), (6, special.jn_zeros(1, 1)[0])])
    def test_ball_alpha1_is_a_bessel_zero(self, d, j):
        # D(alpha) is proportional to J_{nu - 1}(k R), nu = d/2 - 1, k = sqrt(2 alpha h)
        radius, height = 1.3, 0.7
        v = Potential.ball_indicator(d, radius, height=height)
        assert alpha1_interval(v)[1] == pytest.approx(j * j / (2.0 * height * radius**2),
                                                      rel=1e-12)
        assert special.jv(d / 2.0 - 2.0, j) == pytest.approx(0.0, abs=1e-15)

    def test_no_warning_at_huge_negative_alpha(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for v in (BALL, STEP, SIGNED, BALL5):
                for rho in (0.0, 0.5, 1.0, 3.0):
                    x = np.zeros(v.dim)
                    x[0] = rho
                    u = mgf_one_sided(x, v, -1e6)
                    assert u == math.inf or 0.0 <= u < 1.0

    def test_independent_high_precision_solve(self):
        # the band-to-band Wronskian continuation against a 30-digit Taylor
        # solve of u'' + (d-1)/r u' + 2 alpha v u = 0 across the outer band
        mp = pytest.importorskip("mpmath")
        v, d = SIGNED4, 4
        lo, hi = alpha1_interval(v)
        with mp.workdps(30):
            for alpha in (0.9 * hi, 0.9 * lo):
                q0, q1 = 2 * mp.mpf(alpha), -mp.mpf(alpha)
                w0 = mp.hyp0f1(2, -q0 / 16)  # w(1/2), w(0) = 1
                dw0 = -q0 / 8 * mp.hyp0f1(3, -q0 / 16)
                sol = mp.odefun(lambda r, y: [y[1], -(d - 1) / r * y[1] - q1 * y[0]],
                                mp.mpf(0.5), [w0, dw0])
                w1, dw1 = sol(mp.mpf(1))
                denom = w1 + dw1 / (d - 2)
                for rho in (0.75, 2.0):
                    ref = sol(mp.mpf(rho))[0] / denom if rho < 1 else \
                        1 + (w1 / denom - 1) / mp.mpf(rho) ** (d - 2)
                    u = mgf_one_sided([rho, 0.0, 0.0, 0.0], v, alpha)
                    assert u == pytest.approx(float(ref), rel=MGF_TOLERANCE)

    @_PROPERTY
    @given(_radial_case(), st.floats(0.25, 4.0), st.floats(-4.0, 4.0))
    def test_brownian_scaling(self, case, lam, alpha):
        # W from lam x is lam times W from x at time s / lam^2: one law
        v, x, _, _ = case
        zoom = v.dilated(lam).with_height_factor(lam**-2)
        u = mgf_one_sided(x, v, alpha)
        assert mgf_one_sided(lam * x, zoom, alpha) == pytest.approx(u, rel=MGF_TOLERANCE)

    @_PROPERTY
    @given(_radial_case(), st.floats(-4.0, 1.2), st.floats(0.0, 1.0))
    def test_increasing_in_alpha_for_nonnegative_v(self, case, alpha, step):
        v, x, _, _ = case
        if not v.is_nonnegative:
            v = Potential.radial_step(v.dim, v.breakpoints, np.abs(v.heights))
        lo = mgf_one_sided(x, v, alpha)
        hi = mgf_one_sided(x, v, alpha + step)
        assert 0.0 < lo <= hi


class TestBridgeMoments:
    def test_frozen_first_moment(self):
        val = moment_bridge([0, 0, 0], [0, 0, 0], 10.0, BALL, 1)
        assert val == pytest.approx(EZ_BRIDGE_T10, rel=1e-10)

    def test_time_reversal_exact(self):
        a = moment_bridge([0.5, 0, 0], [1.5, 0, 0], 8.0, STEP, 1)
        b = moment_bridge([1.5, 0, 0], [0.5, 0, 0], 8.0, STEP, 1)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
        a2 = moment_bridge([0.0, 0, 0], [2.0, 0, 0], 6.0, BALL, 2)
        b2 = moment_bridge([2.0, 0, 0], [0.0, 0, 0], 6.0, BALL, 2)
        assert abs(a2 - b2) <= 1e-9 * max(1.0, abs(a2))

    def test_zero_potential(self):
        assert moment_bridge([0, 0, 0], [1, 0, 0], 4.0, ZERO, 1) == 0.0

    def test_against_mc_first_and_second(self):
        x, y, t = np.zeros(3), np.array([1.0, 0, 0]), 8.0
        base = EstimatorConfig(potential=BALL, x=x, y=y, t=t, h_fine=0.004, seed=16)
        for k in (1, 2):
            q = moment_bridge(x, y, t, BALL, k)
            est = mc_moment("bridge", k, 30_000, base)
            tol = CFG.tolerance(k, BALL) * abs(q)
            assert abs(est.mean - q) < 3.0 * (est.std_error + tol) + 0.01

    def test_noncollinear_d3(self):
        # endpoints off the support axis take channels l > 0
        x = np.array([0.8, 0.6, 0.0])
        y = np.array([-0.5, 1.0, 0.3])
        q = moment_bridge(x, y, 6.0, BALL, 2)
        est = mc_moment("bridge", 2, 30_000,
                        EstimatorConfig(potential=BALL, x=x, y=y, t=6.0,
                                        h_fine=0.004, seed=17))
        assert abs(est.mean - q) < 3.0 * (est.std_error + 5e-3 * abs(q)) + 0.01
        # the polar pair rule read 0.6611 here, 4.3 % below 200,000 bridges
        x = np.array([0.6, 0.45, 0.0])
        q = moment_bridge(x, y, 2.0, BALL, 2)
        est = mc_moment("bridge", 2, 30_000,
                        EstimatorConfig(potential=BALL, x=x, y=y, t=2.0,
                                        h_fine=0.004, seed=18))
        tol = CFG.tolerance(2, BALL, bridge=True) * abs(q)
        assert abs(est.mean - q) < 4.0 * est.std_error + tol

    def test_long_horizon_approaches_two_sided(self):
        target = moment_two_sided([0, 0, 0], [0, 0, 0], BALL, 1)
        gaps = [abs(moment_bridge([0, 0, 0], [0, 0, 0], t, BALL, 1) - target)
                for t in (10.0, 100.0, 1000.0)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_nonnegative_moments(self):
        assert moment_bridge([0, 0, 0], [3, 0, 0], 5.0, BALL, 2) >= 0.0


# moment_bridge(x, y, t=2, v, k=2), recorded from Kac's resolvent
_BRIDGE_K2 = [
    ("x_equals_y", [0.0, 0, 0], [0.0, 0, 0], BALL, 1.762621317245077),
    ("collinear_ball", [0.0, 0, 0], [1.5, 0, 0], BALL, 0.7338686491749832),
    ("collinear_step", [0.0, 0, 0], [1.5, 0, 0], STEP, 0.5343624081287537),
    ("noncollinear_d3", [0.8, 0.6, 0.0], [-0.5, 1.0, 0.3], BALL, 0.5561273480855241),
    ("collinear_d4", [0.5, 0, 0, 0], [-1.0, 0, 0, 0], BALL4, 0.7452785400605177),
]


@st.composite
def _resolvent_case(draw):
    """A radial case whose horizon keeps the resolvent inside its declared accuracy."""
    v, x, y, _ = draw(_radial_case())
    return v, x, y, draw(st.floats(1.0, 30.0))


def _resolvent_or_skip(x, y, t, v, k):
    try:
        return moment_bridge(x, y, t, v, k)
    except ValueError:  # a geometry the resolvent refuses, such as x = y near a band edge
        assume(False)


class TestBridgeSecondMomentRule:
    @pytest.mark.parametrize("x, y, v, recorded", [c[1:] for c in _BRIDGE_K2],
                             ids=[c[0] for c in _BRIDGE_K2])
    def test_recorded_value(self, x, y, v, recorded):
        assert moment_bridge(x, y, 2.0, v, 2) == pytest.approx(recorded, rel=1e-13)

    @_PROPERTY
    @given(_resolvent_case(), st.sampled_from([2, 3]))
    def test_time_reversal_is_exact(self, case, k):
        v, x, y, t = case
        forward = _resolvent_or_skip(x, y, t, v, k)
        green._resolvent_moments.cache_clear()
        assert moment_bridge(y, x, t, v, k) == forward

    @_PROPERTY
    @given(_resolvent_case(), st.floats(0.25, 4.0), st.sampled_from([2, 3]))
    def test_brownian_scaling(self, case, lam, k):
        # lam W at time s / lam^2 is a Brownian path: Z is the same integral
        v, x, y, t = case
        zoom = v.dilated(lam).with_height_factor(lam**-2)
        base = _resolvent_or_skip(x, y, t, v, k)
        assert moment_bridge(lam * x, lam * y, lam * lam * t, zoom, k) == \
            pytest.approx(base, rel=CFG.tolerance(k, v, bridge=True), abs=1e-14)


def _e(d, *coords):
    out = np.zeros(d)
    out[:len(coords)] = coords
    return out


def _potentials(d):
    return {"ball": Potential.ball_indicator(d, 1.0),
            "step": Potential.radial_step(d, [0.6, 1.2], [1.2, 0.4]),
            "signed": Potential.radial_step(d, [0.5, 1.0], [1.0, -0.5])}


# (d, potential, x, y, t): the centre, on the axis, off it, on a band edge
# (-e1 on the ball), x = y off the centre, and a far pair at a short horizon
_ACCURACY = [
    (d, name, x, y, t)
    for d in (3, 4, 5)
    for name, x, y, t in [
        ("ball", _e(d), _e(d), 0.2), ("ball", _e(d), _e(d), 2560.0),
        ("step", _e(d), _e(d, 1.5), 8.0), ("signed", _e(d), _e(d, 1.5), 640.0),
        ("ball", _e(d, -1.0), _e(d, 2.0), 12.0), ("step", _e(d, -1.0), _e(d, 2.0), 1.0),
        ("signed", _e(d, 0.6, 0.45), _e(d, -0.5, 1.0, 0.3), 2.0),
        ("step", _e(d, 0.3, 0.4), _e(d, 1.5, -0.2, 0.1), 40.0),
        ("ball", _e(d, 0.4, 0.2), _e(d, 0.4, 0.2), 3.0),
        ("ball", _e(d, 3.0), _e(d, 0.0, 3.0), 0.2),
    ]
]


class TestResolventAccuracy:
    @pytest.mark.parametrize("d, name, x, y, t", _ACCURACY,
                             ids=[f"d{c[0]}-{c[1]}-{i}" for i, c in enumerate(_ACCURACY)])
    def test_first_moment_is_the_time_rule(self, d, name, x, y, t):
        # the contour's alpha^1 coefficient against the exact sqrt(s) rule; the
        # far pair (|x| = |y| = 3, t = 0.2, E Z = 3.4e-9 in d = 3) is inside
        # the resolvent's own rounding estimate
        v = _potentials(d)[name]
        r, s = sorted(float(np.linalg.norm(p)) for p in (x, y))
        (m1, _, _), errors = green._resolvent_moments(
            green._radial_key(v), r, s, float(np.linalg.norm(y - x)), t)
        exact = moment_bridge(x, y, t, v, 1)
        assert abs(m1 - exact) <= max(1e-12, errors[0]) * abs(exact) + 1e-15

    @pytest.mark.parametrize("t, m2, m3", [(10.0, 4.1484866182, 11.449197),
                                           (40.0, 5.0005001143, 16.091999),
                                           (1000.0, 5.3194894988, 18.045820)])
    def test_centre_of_the_ball(self, t, m2, m3):
        # references from an independent Laplace inversion (10 digits for
        # k = 2, 6 for k = 3); the tensor rule read 12.9126 and 2.7681 for
        # k = 3 at t = 40 and 1000
        z = [0.0, 0.0, 0.0]
        assert moment_bridge(z, z, t, BALL, 2) == pytest.approx(m2, rel=1e-8)
        assert moment_bridge(z, z, t, BALL, 3) == pytest.approx(m3, abs=1e-6)

    def test_long_horizon_rate(self):
        # t (m_k(t) - two-sided limit) settles at -13.866 (k = 2) and -87.77 (k = 3)
        z = [0.0, 0.0, 0.0]
        for k, rate in ((2, -13.8664), (3, -87.769)):
            limit = moment_two_sided(z, z, BALL, k)
            t = 1e5
            assert t * (moment_bridge(z, z, t, BALL, k) - limit) == \
                pytest.approx(rate, rel=1e-4)

    @pytest.mark.parametrize("t", [40.0, 640.0])
    def test_off_axis_step_takes_under_a_second(self, t):
        # the polar pair rule took 20 s and 52 s here
        green._resolvent_moments.cache_clear()
        start = time.perf_counter()
        moment_bridge([0.3, 0.4, 0.0], [1.5, -0.2, 0.1], t, STEP, 2)
        assert time.perf_counter() - start < 1.0

    def test_antipodal_far_pair_is_refused(self):
        # the channel terms are about e^50 times the bridge's kernel here
        with pytest.raises(ValueError, match="declared accuracy"):
            moment_bridge([3.0, 0, 0], [-3.0, 0, 0], 0.2, BALL, 2)


class TestTwoSided:
    def test_first_moment_linearity(self):
        x = np.array([0.0, 0, 0])
        y = np.array([1.5, 0, 0])
        val = moment_two_sided(x, y, BALL, 1)
        expected = moment_free(x, math.inf, BALL, 1) + \
            moment_free(y, math.inf, BALL, 1)
        assert val == pytest.approx(expected, rel=1e-13)

    def test_flagship_value(self):
        assert moment_two_sided([0, 0, 0], [0, 0, 0], BALL, 1) == pytest.approx(
            2.0, abs=2e-3)

    def test_zero_second_moment(self):
        assert moment_two_sided([0, 0, 0], [0, 0, 0], ZERO, 2) == 0.0

    def test_second_moment_binomial(self):
        m1 = moment_free([0, 0, 0], math.inf, BALL, 1)
        m2 = moment_free([0, 0, 0], math.inf, BALL, 2)
        val = moment_two_sided([0, 0, 0], [0, 0, 0], BALL, 2)
        assert val == pytest.approx(2.0 * m2 + 2.0 * m1 * m1, rel=1e-12)
        assert moment_two_sided([0, 0, 0], [0, 0, 0], BALL, 2, horizon=math.inf) == val

    @pytest.mark.parametrize("tabulated", [False, True], ids=["ball", "tabulated"])
    def test_finite_horizon_binomial_sum(self, tabulated):
        # both legs to the same horizon T; the sum tends to the T = inf law
        v = NEAR_TABLE if tabulated else BALL
        x, y = np.zeros(3), np.array([0.5, 0.0, 0.0])
        for k in (1, 2):
            binomial = sum(math.comb(k, j) * moment_free(x, 50.0, v, j) *
                           moment_free(y, 50.0, v, k - j) for j in range(k + 1))
            assert moment_two_sided(x, y, v, k, horizon=50.0) == pytest.approx(binomial,
                                                                             rel=1e-14)
            limit = moment_two_sided(x, y, v, k)
            gaps = [limit - moment_two_sided(x, y, v, k, horizon=T)
                    for T in (50.0, 800.0, 12_800.0)]
            assert gaps[0] > gaps[1] > gaps[2] > 0.0


class TestHorizonGap:
    def test_equal_horizons_zero(self):
        assert horizon_moment_gap([0, 0, 0], [0, 0, 0], 5.0, 5.0, BALL, 1) == 0.0

    def test_monotone_in_comparison_horizon(self):
        d1 = horizon_moment_gap([0, 0, 0], [0, 0, 0], 100.0, 1.0, BALL, 1)
        d2 = horizon_moment_gap([0, 0, 0], [0, 0, 0], 100.0, 10.0, BALL, 1)
        assert 0.0 <= d2 <= d1

    def test_flagship_ratio(self):
        t = 1e4
        d_early = horizon_moment_gap([0, 0, 0], [0, 0, 0], t, 1.0, BALL, 1)
        d_split = horizon_moment_gap([0, 0, 0], [0, 0, 0], t, math.sqrt(t), BALL, 1)
        assert d_split < 0.1 * d_early

    def test_decreasing_along_horizon_grid_with_sqrt_window(self):
        vals = [horizon_moment_gap([0, 0, 0], [0, 0, 0], t, math.sqrt(t), BALL, 1)
                for t in (1e2, 1e3, 1e4)]
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            horizon_moment_gap([0, 0, 0], [0, 0, 0], 5.0, 6.0, BALL, 1)
        with pytest.raises(ValueError):
            horizon_moment_gap([0, 0, 0], [0, 0, 0], 5.0, 0.0, BALL, 1)


@pytest.fixture(scope="module")
def staircase():
    n = 21
    h = 2.2 / n
    ax = -1.1 + h * (np.arange(n) + 0.5)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    return Potential.tabulated(3, [-1.1] * 3, h,
                               ((X**2 + Y**2 + Z**2) <= 1.0).astype(float))


class TestTabulatedFallback:
    def test_first_moment_matches_mc(self, staircase):
        t = 6.0
        q = moment_bridge([0, 0, 0], [0, 0, 0], t, staircase, 1)
        est = mc_moment("bridge", 1, 25_000,
                        EstimatorConfig(potential=staircase, x=np.zeros(3),
                                        y=np.zeros(3), t=t, h_fine=0.004, seed=19))
        assert abs(est.mean - q) < 3.0 * est.std_error + 0.01

    def test_second_moment_within_declared_band(self, staircase):
        t = 6.0
        q = moment_bridge([0, 0, 0], [0, 0, 0], t, staircase, 2)
        est = mc_moment("bridge", 2, 25_000,
                        EstimatorConfig(potential=staircase, x=np.zeros(3),
                                        y=np.zeros(3), t=t, h_fine=0.004, seed=20))
        tol = CFG.tolerance(2, staircase, bridge=True) * abs(q)
        assert abs(est.mean - q) < 3.0 * (est.std_error + tol)

    def test_free_infinite_horizon(self, staircase):
        v1 = moment_free([0, 0, 0], math.inf, staircase, 1)
        assert v1 == pytest.approx(1.0, rel=0.05)
        v2 = moment_free([0, 0, 0], math.inf, staircase, 2)
        assert v2 == pytest.approx(5.0 / 3.0, rel=0.10)


# a fixed random 6^3 table, and the four bridges of the bloch_near benchmark
NEAR_TABLE = Potential.tabulated(3, [-1.2, -1.2, -1.2], 0.4,
                                 np.random.default_rng(2004).uniform(0.0, 1.0, (6, 6, 6)))
NEAR_POINTS = [([0.3, -0.2, 0.1], [-0.4, 0.5, 0.0], 0.5),
               ([0.0, 0.6, -0.3], [0.2, -0.5, 0.4], 1.0),
               ([-0.7, 0.1, 0.2], [0.6, 0.0, -0.5], 2.0),
               ([0.5, 0.5, 0.5], [-0.5, -0.5, -0.5], 4.0)]
# the digest matrix's 4^3 table, whose faces pass through 0
FACE_TABLE = Potential.tabulated(3, [-0.8, -0.8, -0.8], 0.4,
                                 [[[((i + 2 * j + 3 * k) % 5) / 4.0 for k in range(4)]
                                   for j in range(4)] for i in range(4)])
# (potential, x, y, t): the bloch_near bridges, the digest table from a
# corner of four cells, ends off the table and outside it, and x = y
_PAIR_ACCURACY = [
    *(("near", x, y, t) for x, y, t in NEAR_POINTS),
    ("face", [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], 4.0),
    ("face", [-0.5, 0.4, 0.0], [0.5, -0.4, 0.2], 1.0),
    ("near", [1.5, 0.3, -0.2], [-1.6, 0.0, 0.5], 2.0),
    ("near", [2.0, 0.0, 0.0], [2.0, 0.0, 0.0], 3.0),
    ("near", [0.1, 0.2, -0.3], [0.1, 0.2, -0.3], 8.0),
]


def _refine_pair_rule(monkeypatch):
    """Switch the pair rule to a finer grid: a third of the base, 8 nodes on every panel."""
    monkeypatch.setattr(quadrature, "_PAIR_BASE", 0.25)
    monkeypatch.setattr(quadrature, "_PAIR_LAG_ORDERS", (8,))
    monkeypatch.setattr(quadrature, "_PAIR_TIME_ORDERS", (8,))


@st.composite
def _bridge_table_case(draw):
    """A random d = 3 table, two points near it and a horizon."""
    shape = draw(st.lists(st.integers(1, 4), min_size=3, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = Potential.tabulated(3, rng.uniform(-1.0, 0.0, 3), draw(st.floats(0.1, 0.8)),
                            rng.uniform(-0.5, 1.0, shape))
    x, y = rng.uniform(-1.5, 1.5, (2, 3))
    return v, x, y, draw(st.floats(0.05, 8.0))


class TestBridgePairRule:
    @pytest.mark.parametrize("name, x, y, t", _PAIR_ACCURACY,
                             ids=[f"{c[0]}-{i}" for i, c in enumerate(_PAIR_ACCURACY)])
    def test_refined_rule_agreement(self, name, x, y, t, monkeypatch):
        v = {"near": NEAR_TABLE, "face": FACE_TABLE}[name]
        value = moment_bridge(x, y, t, v, 2)
        _refine_pair_rule(monkeypatch)
        refined = moment_bridge(x, y, t, v, 2)
        assert value == pytest.approx(refined, rel=CFG.tolerance(2, v, bridge=True))

    def test_staircase_refined_rule_agreement(self, staircase, monkeypatch):
        x, y, t = [0.3, 0.1, 0.0], [-0.2, 0.4, 0.1], 1.0
        value = moment_bridge(x, y, t, staircase, 2)
        _refine_pair_rule(monkeypatch)
        refined = moment_bridge(x, y, t, staircase, 2)
        assert value == pytest.approx(refined, rel=CFG.tolerance(2, staircase, bridge=True))

    @pytest.mark.parametrize("index", range(4))
    def test_matches_monte_carlo(self, index):
        # the tensor rule read 0.053274 / 0.223583 / 0.682193 / 1.540433 here
        x, y, t = (np.array(p) if i < 2 else p for i, p in enumerate(NEAR_POINTS[index]))
        q = moment_bridge(x, y, t, NEAR_TABLE, 2)
        est = mc_moment("bridge", 2, 8_192,
                        EstimatorConfig(potential=NEAR_TABLE, x=x, y=y, t=t,
                                        h_fine=0.0025, seed=31, stream_channel=index))
        assert abs(est.mean - q) <= 3.0 * est.std_error

    def test_recorded_values(self):
        # the pair law at the bloch_near bridges, from the refined rule
        for (x, y, t), ref in zip(NEAR_POINTS, (0.0707183491, 0.2123227540,
                                                0.6321312505, 1.3786805936)):
            assert moment_bridge(x, y, t, NEAR_TABLE, 2) == pytest.approx(ref, rel=1e-5)

    @_PROPERTY
    @given(_bridge_table_case())
    def test_time_reversal(self, case):
        v, x, y, t = case
        assert moment_bridge(y, x, t, v, 2) == pytest.approx(
            moment_bridge(x, y, t, v, 2), rel=1e-12, abs=1e-300)

    @_PROPERTY
    @given(_bridge_table_case(), st.floats(0.25, 4.0))
    def test_brownian_scaling(self, case, lam):
        # lam W at time s / lam^2 is a Brownian path: Z is the same integral
        v, x, y, t = case
        zoom = v.dilated(lam).with_height_factor(lam**-2)
        assert moment_bridge(lam * x, lam * y, lam * lam * t, zoom, 2) == pytest.approx(
            moment_bridge(x, y, t, v, 2), rel=CFG.tolerance(2, v, bridge=True), abs=1e-14)

    def test_cell_pair_masses_against_scipy(self):
        # Owen's T against scipy's bivariate normal CDF, edges on and off the means
        from scipy import stats
        edges = np.array([-1.0, -0.3, 0.0, 0.4, 1.5])
        mu1, mu2 = np.array([0.0, 0.2]), np.array([0.4, -0.1])
        sd1, sd2 = np.array([0.5, 1.1]), np.array([0.3, 0.7])
        rho = np.array([0.6, 0.95])
        mass = quadrature._cell_pair_masses(edges, mu1, mu2, sd1, sd2, rho,
                                            np.sqrt(1.0 - rho * rho))
        for p in range(2):
            cov = [[sd1[p] ** 2, rho[p] * sd1[p] * sd2[p]],
                   [rho[p] * sd1[p] * sd2[p], sd2[p] ** 2]]
            law = stats.multivariate_normal([mu1[p], mu2[p]], cov)
            for a in range(edges.size - 1):
                for b in range(edges.size - 1):
                    ref = law.cdf([edges[a + 1], edges[b + 1]],
                                  lower_limit=[edges[a], edges[b]])
                    assert mass[p, a, b] == pytest.approx(ref, abs=1e-7)


SIGNED_TABLE = Potential.tabulated(3, [-0.8, -0.8, -0.8], 0.4,
                                   np.random.default_rng(5).uniform(-1.0, 1.0, (4, 4, 4)))
TABLE4 = Potential.tabulated(4, [-0.6] * 4, 0.4,
                             np.random.default_rng(9).uniform(0.0, 1.0, (3, 3, 3, 3)))
# (potential, x, horizon): starts in cells, on their faces and off the table;
# a signed table and a d = 4 one
_FREE_PAIR_ACCURACY = [
    *(("near", [0.3, -0.2, 0.1], t) for t in (1.0, 10.0, 100.0)),
    *(("near", [0.5, 0.5, 0.5], t) for t in (1.0, 10.0, 100.0)),
    ("face", [0.0, 0.0, 0.0], 1.0), ("face", [0.0, 0.0, 0.0], 4.0),
    ("face", [-0.4, 0.4, 0.0], 0.05), ("near", [2.0, 0.0, 0.0], 3.0),
    ("near", [0.1, 0.2, -0.3], 0.05), ("near", [0.1, 0.2, -0.3], 1000.0),
    ("signed", [0.1, -0.3, 0.2], 2.0), ("d4", [0.0, 0.1, 0.0, -0.2], 2.0),
]
_FREE_TABLES = {"near": NEAR_TABLE, "face": FACE_TABLE, "signed": SIGNED_TABLE, "d4": TABLE4}


def _radial(d, bands):
    """The radial potential of ``bands`` [(outer radius, height), ...] in dimension d."""
    return Potential.radial_step(d, [b for b, _ in bands], [h for _, h in bands])


# E Y(T)^2 of free motion from x = r e1, recorded from an mpmath inversion of
# the band transform, independent of the library: per band, F(lambda; alpha)
# = 1 / (lambda - alpha h) + A r^-nu I_nu(k r) + B r^-nu K_nu(k r), k =
# sqrt(2 (lambda - alpha h)), and 1 / lambda + C r^-nu K_nu(k0 r) outside;
# A, B and C from one linear solve that matches value and slope at every edge
# (30 digits), E Y^2 the Talbot inversion (mpmath.invertlaplace) of
# d^2 F / d alpha^2 at alpha = 0.  The d = 3 ball at the centre has the closed
# form F = 1 / (lambda - alpha) + k1 D (1 + k0) / (k0 sinh k1 + k1 cosh k1),
# D = 1 / lambda - 1 / (lambda - alpha), k0 = sqrt(2 lambda), k1 = sqrt(2
# (lambda - alpha)).
_FREE_RADIAL_REFS = [
    (3, [(1.0, 1.0)], 0.0, 4.0, 0.80833042996457),
    (3, [(1.0, 1.0)], 0.0, 40.0, 1.36742471650234),
    (3, [(1.0, 1.0)], 0.0, 50.0, 1.39839150545371),
    (3, [(0.5, 2.0), (1.0, -0.5)], 0.5, 4.0, 0.074341609399213589),
    (3, [(0.5, 2.0), (1.0, -0.5)], 1.5, 40.0, 0.040458550423369144),
    (3, [(0.5, 2.0), (1.0, -0.5)], 0.3, 1e4, 0.11686637583426539),
    (4, [(1.0, 1.0)], 0.0, 1e4, 0.37497916120291865),
    (4, [(1.0, 1.0)], 0.7, 4.0, 0.21689988621811450),
    (5, [(0.5, 2.0), (1.0, -0.5)], 0.5, 40.0, 0.015112346788664650),
    (5, [(0.6, 1.2), (1.2, 0.4)], 1.2, 40.0, 0.020607213289528825),
]


class TestFreeSecondMoment:
    """Finite-horizon E Y(T)^2: Kac's resolvent applied to 1, and the free pair rule."""

    @pytest.mark.parametrize("d, bands, r, t, ref", _FREE_RADIAL_REFS)
    def test_radial_against_mpmath(self, d, bands, r, t, ref):
        # the pair rule read 8.0e-5 and 6.7e-5 low at the centre of the ball
        # at T = 4 and 40, and 2.8e-3 low on the signed step
        x = np.zeros(d)
        x[0] = r
        assert moment_free(x, t, _radial(d, bands), 2) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("t", [0.05, 4.0, 1e4])
    def test_first_moment_is_the_time_rule(self, d, t):
        # the resolvent's alpha^1 coefficient against the sqrt(s) k = 1 rule
        for v in _potentials(d).values():
            for r in (0.0, 0.5, 1.0, 1.5):
                m, _ = green.resolvent_moments(_e(d, r), None, t, v)
                assert m[0] == pytest.approx(moment_free(_e(d, r), t, v, 1), rel=1e-9)

    def test_declared_tolerances(self):
        assert CFG.tolerance(2, BALL) == CFG.tolerance(2, BALL, bridge=True) == 1e-6
        assert CFG.tolerance(2, NEAR_TABLE) == 1.25e-4
        assert CFG.tolerance(1, NEAR_TABLE) == CFG.tolerance(1, NEAR_TABLE, bridge=True) == 1.4e-14

    @pytest.mark.parametrize("t, ref", [(1.0, 0.1415264), (10.0, 0.8749006),
                                        (100.0, 1.4438826)])
    def test_recorded_pair_law(self, t, ref):
        # the pair law on a finer grid; the tensor rule read 0.1519178,
        # 0.9340596 and 1.5377405 here (+7.3 %, +6.8 %, +6.5 %)
        assert moment_free([0.3, -0.2, 0.1], t, NEAR_TABLE, 2) == pytest.approx(
            ref, rel=CFG.tolerance(2, NEAR_TABLE))

    @pytest.mark.parametrize("name, x, t", _FREE_PAIR_ACCURACY,
                             ids=[f"{c[0]}-{i}" for i, c in enumerate(_FREE_PAIR_ACCURACY)])
    def test_refined_rule_agreement(self, name, x, t, monkeypatch):
        v = _FREE_TABLES[name]
        value = moment_free(x, t, v, 2)
        monkeypatch.setattr(quadrature, "_PAIR_BASE", quadrature._PAIR_BASE / 16.0)
        for orders in ("_PAIR_LAG_ORDERS", "_PAIR_TIME_ORDERS", "_PAIR_FAR_LAG_ORDERS",
                       "_PAIR_FAR_TIME_ORDERS"):
            monkeypatch.setattr(quadrature, orders, (12,))
        assert value == pytest.approx(moment_free(x, t, v, 2), rel=CFG.tolerance(2, v))

    def test_matches_monte_carlo(self):
        x = np.array([0.3, -0.2, 0.1])
        q = moment_free(x, 1.0, NEAR_TABLE, 2)
        est = mc_moment("free", 2, 32_768,
                        EstimatorConfig(potential=NEAR_TABLE, x=x, free_horizon=1.0,
                                        h_fine=0.0025, seed=77))
        assert abs(est.mean - q) <= 3.0 * est.std_error


# E Y(T)^3 of free motion from x = r e1, from the mpmath inversion of
# _FREE_RADIAL_REFS applied to d^3 F / d alpha^3 at alpha = 0.  The d = 3 ball
# at the centre tends to the Green chain's 61/15 like T^(-1/2).
_FREE_RADIAL_K3_REFS = [
    (3, [(1.0, 1.0)], 0.0, 4.0, 1.165038405980422),
    (3, [(1.0, 1.0)], 0.0, 50.0, 3.0584543963216203),
    (3, [(1.0, 1.0)], 0.0, 1e4, 3.9938769110703135),
    (3, [(1.0, 1.0)], 0.0, 1e6, 4.0593869276247877),
    (3, [(1.0, 1.0)], 0.0, 40.0, 2.9452292170600813),
    (3, [(0.5, 2.0), (1.0, -0.5)], 0.5, 4.0, 0.028648675011160068),
    (3, [(0.5, 2.0), (1.0, -0.5)], 1.5, 40.0, -0.0083849096271894052),
    (3, [(0.5, 2.0), (1.0, -0.5)], 0.3, 1e4, 0.04557458063484212),
    (4, [(1.0, 1.0)], 0.0, 1e4, 0.39579815731175539),
    (4, [(1.0, 1.0)], 0.7, 4.0, 0.19520703106275125),
    (5, [(0.5, 2.0), (1.0, -0.5)], 0.5, 40.0, -0.0022167321983465175),
    (5, [(0.6, 1.2), (1.2, 0.4)], 1.2, 40.0, 0.0086394783401329372),
]
# starts outside the d = 3 ball at short horizons, where the resolvent's own
# error estimate read up to 13 times below its real error (stable from 30 to
# 45 digits)
_FREE_RADIAL_K3_OUTSIDE = [
    (1.5, 0.05, 1.7480704203272145e-8),
    (2.0, 0.2, 7.2496910063862314e-7),
    (1.2, 0.05, 2.2601790209633615e-6),
]


class TestFreeThirdMoment:
    """Finite-horizon E Y(T)^3: the resolvent's third coefficient, and the chain law."""

    @pytest.mark.parametrize("d, bands, r, t, ref", _FREE_RADIAL_K3_REFS)
    def test_radial_against_mpmath(self, d, bands, r, t, ref):
        x = np.zeros(d)
        x[0] = r
        assert moment_free(x, t, _radial(d, bands), 3) == pytest.approx(
            ref, rel=1e-9)

    @pytest.mark.parametrize("r, t, ref", _FREE_RADIAL_K3_OUTSIDE)
    def test_outside_at_short_horizons(self, r, t, ref):
        # the declared tolerance is five times the worst of these, 4.3e-7
        assert CFG.tolerance(3, BALL) == 2.2e-6 and CFG.tolerance(3, BALL, bridge=True) == 1e-6
        assert moment_free([r, 0.0, 0.0], t, BALL, 3) == pytest.approx(
            ref, rel=CFG.tolerance(3, BALL))

    def test_ball_centre_inverted_here(self):
        # the closed form F at the centre of the d = 3 ball (see
        # _FREE_RADIAL_REFS), inverted at T = 4 independently of the table
        mp = pytest.importorskip("mpmath")

        def transform(lam, a):
            k0, k1 = mp.sqrt(2 * lam), mp.sqrt(2 * (lam - a))
            jump = 1 / lam - 1 / (lam - a)
            return 1 / (lam - a) + k1 * jump * (1 + k0) / (k0 * mp.sinh(k1) + k1 * mp.cosh(k1))

        with mp.workdps(30):
            ref = mp.invertlaplace(lambda lam: mp.diff(lambda a: transform(lam, a), 0, 3),
                                   4, method="talbot")
        assert moment_free(np.zeros(3), 4.0, BALL, 3) == pytest.approx(float(ref), rel=1e-9)

    def test_radial_tends_to_the_green_chain(self):
        # sqrt(T) times the gap to 61/15 settles as T grows
        limit = moment_free(np.zeros(3), math.inf, BALL, 3)
        assert limit == pytest.approx(61.0 / 15.0, rel=1e-6)
        gaps = [math.sqrt(t) * (limit - moment_free(np.zeros(3), t, BALL, 3))
                for t in (1e4, 1e6)]
        assert gaps[0] == pytest.approx(gaps[1], rel=0.01)

    def test_tabulated_matches_monte_carlo(self):
        # the digest table from off its faces; 32,768 paths at h = 0.001 read
        # 0.021772 +- 0.000180
        x = np.array([0.3, -0.2, 0.1])
        q = moment_free(x, 1.0, FACE_TABLE, 3)
        est = mc_moment("free", 3, 16_384,
                        EstimatorConfig(potential=FACE_TABLE, x=x, free_horizon=1.0,
                                        h_fine=0.0025, seed=83))
        assert abs(est.mean - q) <= 3.0 * est.std_error


def _chain(x, y, t, v):
    """(E Z^2, E Z^3) from the chain law: the bridge x -> y, or free motion when y is None."""
    x = np.asarray(x, dtype=float)
    y = None if y is None else np.asarray(y, dtype=float)
    grid = quadrature._time_grid(v, x, y, t, quadrature._CHAIN_BASE)
    return quadrature._chain_moments(x, y, t, v, *grid)


@st.composite
def _small_table_case(draw):
    """A random table of at most 3 cells an axis, two points near it and a horizon."""
    shape = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = Potential.tabulated(3, rng.uniform(-1.0, 0.0, 3), draw(st.floats(0.2, 0.8)),
                            rng.uniform(-0.5, 1.0, shape))
    x, y = rng.uniform(-1.5, 1.5, (2, 3))
    return v, x, y, draw(st.floats(0.05, 4.0))


_CHAIN_PROPERTY = settings(max_examples=12, deadline=None, derandomize=True, database=None)


class TestChainLaw:
    """Tabulated E Z^3, bridge and free: the chain law conditioned on the middle time."""

    @pytest.mark.parametrize("h", [1.0, -0.7])
    def test_uniform_table_wider_than_the_path(self, h):
        # every one-point law lies inside the middle cell, so E Z^k = (h t)^k
        wide = Potential.tabulated(3, [-60.0] * 3, 40.0, np.full((3, 3, 3), h))
        x, y = [0.2, -0.1, 0.3], [1.0, 0.5, -0.4]
        for t in (0.5, 3.0):
            assert moment_bridge(x, y, t, wide, 3) == pytest.approx((h * t) ** 3, rel=1e-12)
            assert moment_free(x, t, wide, 3) == pytest.approx((h * t) ** 3, rel=1e-12)
            for end in (y, None):
                assert _chain(x, end, t, wide)[0] == pytest.approx((h * t) ** 2, rel=1e-12)

    @_CHAIN_PROPERTY
    @given(_small_table_case())
    def test_time_reversal(self, case):
        v, x, y, t = case
        scale = (t * float(np.max(np.abs(v.values)))) ** 3
        assert moment_bridge(y, x, t, v, 3) == pytest.approx(
            moment_bridge(x, y, t, v, 3), rel=1e-10, abs=1e-12 * scale)

    @_CHAIN_PROPERTY
    @given(_small_table_case(), st.floats(0.25, 4.0))
    def test_brownian_scaling(self, case, lam):
        # lam W at time s / lam^2 is a Brownian path: Z is the same integral
        v, x, y, t = case
        zoom = v.dilated(lam).with_height_factor(lam**-2)
        scale = (t * float(np.max(np.abs(v.values)))) ** 3
        assert moment_bridge(lam * x, lam * y, lam * lam * t, zoom, 3) == pytest.approx(
            moment_bridge(x, y, t, v, 3), rel=1e-10, abs=1e-12 * scale)
        assert moment_free(lam * x, lam * lam * t, zoom, 3) == pytest.approx(
            moment_free(x, t, v, 3), rel=1e-10, abs=1e-12 * scale)

    @pytest.mark.parametrize("index", range(4))
    def test_recorded_values(self, index):
        # the chain at the bloch_near bridges, refined to a sixteenth of its
        # base with 12 nodes a panel and 12 per cell and axis; the tensor rule
        # read 0.013082 / 0.112072 / 0.606415 / 2.199242 here
        x, y, t = NEAR_POINTS[index]
        ref = (0.01961714633, 0.1018419952, 0.5361766133, 1.856659504)[index]
        m2, m3 = _chain(x, y, t, NEAR_TABLE)
        assert m3 == pytest.approx(ref, rel=CFG.tolerance(3, NEAR_TABLE))
        # a cross-check of the chain's z and time rules: its own E Z^2
        assert m2 == pytest.approx(moment_bridge(x, y, t, NEAR_TABLE, 2), rel=1e-5)

    def test_free_second_moment_is_the_pair_law(self):
        assert _chain([0.0, 0.0, 0.0], None, 4.0, FACE_TABLE)[0] == pytest.approx(
            moment_free([0.0, 0.0, 0.0], 4.0, FACE_TABLE, 2), rel=1e-5)

    def test_matches_monte_carlo(self):
        # 32,768 bridges at h = 0.001 read 0.019599 +- 0.000053
        x, y, t = (np.array(p) if i < 2 else p for i, p in enumerate(NEAR_POINTS[0]))
        q = moment_bridge(x, y, t, NEAR_TABLE, 3)
        est = mc_moment("bridge", 3, 16_384,
                        EstimatorConfig(potential=NEAR_TABLE, x=x, y=y, t=t,
                                        h_fine=0.0025, seed=43))
        assert abs(est.mean - q) <= 3.0 * est.std_error

    def test_declared_tolerance(self):
        assert CFG.tolerance(3, NEAR_TABLE) == CFG.tolerance(3, NEAR_TABLE, bridge=True) \
            == 1.8e-4


class TestFarEndpoints:
    """Endpoints far from the support and from each other end in a value or ValueError."""

    @pytest.mark.parametrize("v", [BALL, NEAR_TABLE], ids=["ball", "tabulated"])
    def test_out_of_reach_is_zero(self, v):
        # the mean path passes 50 away at t = 1: the one-point laws miss the
        # support by more than 40 standard deviations
        for k in (1, 2, 3) if not v.is_radial else (1,):
            assert moment_bridge([50.0, 0, 0], [60.0, 0, 0], 1.0, v, k) == 0.0

    @pytest.mark.parametrize("v", [BALL, NEAR_TABLE], ids=["ball", "tabulated"])
    def test_out_of_reach_is_zero_at_every_order(self, v):
        # x = y = 30 e1 at t = 0.2 lies past the reach 1 + 20 sqrt(0.2) of the
        # ball, where the resolvent's channel sum did not settle for k >= 2
        for k in (1, 2, 3):
            assert moment_bridge([30.0, 0, 0], [30.0, 0, 0], 0.2, v, k) == 0.0

    @pytest.mark.parametrize("v", [BALL, NEAR_TABLE], ids=["ball", "tabulated"])
    def test_empty_window_is_zero_at_every_order(self, v):
        # from 1e300 e1 to 0 the reach window rounds to the single time t:
        # radial k >= 2 overflowed in the Talbot rule there, and a table's
        # k >= 2 needed more panels than its cap
        for k in (1, 2, 3):
            assert moment_bridge([1e300, 0, 0], [0.0, 0, 0], 1.0, v, k) == 0.0
            assert moment_free([1e300, 0, 0], 1.0, v, k) == 0.0

    @pytest.mark.parametrize("speed", [3e2, 1e5, 3e5, 1e6])
    def test_fast_bridge_into_the_centre(self, speed):
        # the first sigma panel of the half from the centre ignored the
        # panel cap 2 t / |y - x|, and E Z read 0.2 % low at speed 1e5,
        # 4.6 % low at 3e5 and 9.4 % high at 1e6
        def inside(u):  # P(|X_s| <= 1) at s = 1 - u
            return float(radial_ball_cdf(1.0, speed * u, u * (1.0 - u), 3))
        exact = integrate.quad(inside, 0.0, 3.0 / speed, points=[1.0 / speed], epsabs=0.0,
                               epsrel=1e-12, limit=500)[0]
        value = moment_bridge([speed, 0, 0], [0.0, 0, 0], 1.0, BALL, 1)
        assert value == pytest.approx(exact, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("x", [[1e300, 0.0, 0.0], [1e9, 0.0, 0.0], [1.7e308, 0.0, 0.0]],
                             ids=["overflowing_gap", "far", "unrepresentable"])
    def test_value_or_value_error(self, x):
        y = [-x[0] if x[0] > 1e308 else 0.0, 0.0, 0.0]
        for v, k in ((BALL, 1), (NEAR_TABLE, 1), (NEAR_TABLE, 2), (NEAR_TABLE, 3)):
            start = time.perf_counter()
            try:
                value = moment_bridge(x, y, 1.0, v, k)
            except ValueError as exc:
                assert "too far apart" in str(exc)
            else:
                assert math.isfinite(value) and value >= 0.0
            assert time.perf_counter() - start < 1.0

    def test_crossing_at_high_speed(self):
        # the bridge crosses the ball at speed 2e9: E Z is about the crossing
        # time, a few 1e-10, with a bounded number of panels
        value = moment_bridge([1e9, 0, 0], [-1e9, 0, 0], 1.0, BALL, 1)
        assert 1e-10 < value < 1e-9

    @pytest.mark.parametrize("v", [BALL, NEAR_TABLE], ids=["ball", "tabulated"])
    def test_free_start_out_of_reach_is_zero(self, v):
        # 10 e1 at T = 0.05 is more than 40 sqrt(T) from the unit ball, where
        # the resolvent's Talbot weights overflowed; the table's pair and
        # chain rules read 0 there too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (1, 2, 3):
                assert moment_free([10.0, 0, 0], 0.05, v, k) == 0.0

    @pytest.mark.parametrize("v", [BALL, NEAR_TABLE], ids=["ball", "tabulated"])
    def test_free_start_far_but_in_reach(self, v):
        # 30 e1 at T = 1, 29 standard deviations out, is in reach: the values
        # are below 1e-180 but not 0, so the resolvent refuses its k = 2 with
        # its declared error, as it does up to the edge of reach
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 0.0 <= moment_free([30.0, 0, 0], 1.0, v, 1) < 1e-180
            if not v.is_radial:
                for k in (2, 3):
                    assert 0.0 <= moment_free([30.0, 0, 0], 1.0, v, k) < 1e-180
                return
            for x, horizon in ((30.0, 1.0), (1.0 + 39.9 * math.sqrt(0.05), 0.05)):
                with pytest.raises(ValueError, match="declared accuracy"):
                    moment_free([x, 0, 0], horizon, v, 2)

    def test_window_keeps_the_near_rule(self):
        # in reach all along, the window is the whole bridge
        assert quadrature._reach_window(BALL, np.zeros(3), np.array([3.0, 0, 0]), 2.0) == \
            (0.0, 2.0)


class TestShortBridgeInsideTheBall:
    """Ends 1 apart inside the unit ball: the path stays inside to 1e-100, so E Z^k = t^k."""

    @pytest.mark.parametrize("t, k", [
        (t, k) for t in (5e-4, 1e-3, 2e-3, 5e-3, 0.01, 0.02, 0.05) for k in (2, 3)
        if (t, k) != (5e-3, 3)] + [pytest.param(5e-3, 3, marks=pytest.mark.xfail(
            strict=True, reason="2.9e-6 off, over the declared 1e-6, at 9.8e-7 estimated"))])
    def test_value_or_declared_accuracy_error(self, t, k):
        # a Talbot contour placed for the ends' distance outside the support
        # alone read E Z^2 = -1.1e5 at t = 0.01; at t = 5e-4, p(t, x, y) =
        # e^-991 underflowed, and the division by it raised ZeroDivisionError
        try:
            value = moment_bridge([0.5, 0, 0], [-0.5, 0, 0], t, BALL, k)
        except ValueError as exc:
            assert "declared accuracy" in str(exc)
        else:
            assert value == pytest.approx(t**k, rel=1e-6, abs=0.0)

    def test_density_out_of_range_is_refused(self):
        # p(t, x, y) = e^-991 at t = 5e-4, and (2 pi t)^(-3/2) overflowed at
        # t = 1e-300
        for x, y, t in (([0.5, 0, 0], [-0.5, 0, 0], 5e-4), ([0.0, 0, 0], [0.0, 0, 0], 1e-300)):
            for k in (2, 3):
                with pytest.raises(ValueError, match="declared accuracy"):
                    moment_bridge(x, y, t, BALL, k)


def _per_row_smear(v, mu, var):
    """The one-row rule: the table contracted with each axis's cell masses in turn."""
    if var <= 0.0:
        return float(v(mu))
    acc = v.values
    for axis in range(v.dim):
        edges = v.origin[axis] + v.spacing * np.arange(v.values.shape[axis] + 1)
        mass = np.diff(special.ndtr((edges - mu[axis]) / math.sqrt(var)))
        acc = np.tensordot(mass, acc, axes=(0, 0))
    return float(acc)


@st.composite
def _table_case(draw):
    """A random nonnegative table in d = 3..5 and rows of means and variances, some zero."""
    d = draw(st.integers(3, 5))
    shape = draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = Potential.tabulated(d, rng.uniform(-1.0, 0.0, d), draw(st.floats(0.1, 0.8)),
                            rng.uniform(0.0, 1.0, shape))
    rows = draw(st.integers(1, 12))
    mu = rng.uniform(-1.5, 1.5, (rows, d))
    var = rng.uniform(0.0, 2.0, rows) * (rng.uniform(size=rows) > 0.25)
    return v, mu, var


class TestTabulatedSmear:
    @_PROPERTY
    @given(_table_case())
    def test_batch_matches_per_row_rule(self, case):
        v, mu, var = case
        batch = quadrature._smear(v, mu, var)
        for i in range(mu.shape[0]):
            ref = _per_row_smear(v, mu[i], var[i])
            assert abs(batch[i] - ref) <= 1e-13 * abs(ref)

    def test_zero_variance_is_the_point_value(self):
        v = Potential.tabulated(3, [-0.8, -0.8, -0.8], 0.4,
                                (np.arange(64).reshape(4, 4, 4) % 5) / 4.0)
        mu = np.array([[0.1, -0.3, 0.5], [2.0, 0.0, 0.0]])
        assert list(quadrature._smear(v, mu, np.zeros(2))) == list(v(mu))


def _cuboid_green(x, lo, hi) -> float:
    """int over the box [lo, hi] of 1 / (2 pi |x - z|) dz, the d = 3 Green potential.

    The closed form: a signed sum over the box's corners of
    F = ab ln(c + r) + bc ln(a + r) + ca ln(b + r)
        - a^2/2 atan(bc / (ar)) - b^2/2 atan(ca / (br)) - c^2/2 atan(ab / (cr)),
    with (a, b, c) the corner less x and r its length.
    """
    def corner(a, b, c):
        r = math.sqrt(a * a + b * b + c * c)
        out = 0.0
        for p, q, s in ((a, b, c), (b, c, a), (c, a, b)):
            if p != 0.0 and q != 0.0 and s + r > 0.0:
                out += p * q * math.log(s + r)
            if p != 0.0:
                out -= 0.5 * p * p * math.atan(q * s / (p * r))
        return out

    total = 0.0
    for idx in np.ndindex(2, 2, 2):
        total += (-1) ** (3 - sum(idx)) * corner(*((lo, hi)[idx[i]][i] - x[i] for i in range(3)))
    return total / (2.0 * math.pi)


def _table_cuboid_green(v: Potential, x) -> float:
    total = 0.0
    for idx in np.ndindex(*v.values.shape):
        lo = v.origin + v.spacing * np.array(idx)
        total += v.values[idx] * _cuboid_green(x, lo, lo + v.spacing)
    return total


def _cell_moment(v: Potential, x, k: int) -> float:
    """Kac's chain of the cell operators at any order, extrapolated."""
    key = green._cell_key(v)
    return green._extrapolate([k * green._cells(key, m).at(np.asarray(x, float),
                                                            green._chain_density(key, m, k))
                               for m in green._subcells(key)])[0]


SMALL_TABLE = Potential.tabulated(3, [-0.5, -0.5, -0.5], 0.5,
                                  [[[1.0, 0.5], [0.25, 0.75]], [[0.5, 1.0], [0.0, 0.5]]])


class TestCellOperators:
    """The Green potential, Kac's chain, the gauge and alpha1 of a tabulated v."""

    # a cell vertex, points inside cells, a face of the table and points off it
    POINTS = [[0.0, 0.0, 0.0], [0.2, 0.2, 0.2], [0.1, -0.3, 0.05], [1.0, 0.0, 0.0],
              [2.0, 0.0, 0.0]]

    def test_cuboid_closed_form(self):
        # the unit cube seen from its corner: -pi/4 + 3 ln((1 + sqrt 3) / sqrt 2)
        cube = -math.pi / 4.0 + 3.0 * math.log((1.0 + math.sqrt(3.0)) / math.sqrt(2.0))
        assert _cuboid_green([0, 0, 0], [0, 0, 0], [1, 1, 1]) == \
            pytest.approx(cube / (2.0 * math.pi), rel=1e-15)
        v = Potential.tabulated(3, [0, 0, 0], 1.0, np.ones((1, 1, 1)))
        assert green.green_potential(v, [0, 0, 0]) == pytest.approx(cube / (2.0 * math.pi),
                                                                    rel=1e-13)

    @pytest.mark.parametrize("v", [NEAR_TABLE, FACE_TABLE], ids=["near", "face"])
    def test_first_moment_is_the_cuboid_sum(self, v):
        for x in self.POINTS:
            exact = _table_cuboid_green(v, np.asarray(x, float))
            assert moment_free(x, math.inf, v, 1) == pytest.approx(exact, rel=1e-12)
        assert green.CELL_TOLERANCE[1] == CFG.tolerance(1, v, infinite_horizon=True) == 1e-12

    def test_first_moment_in_higher_dimensions(self):
        # off the table the Green kernel is smooth: a tensor Gauss-Legendre
        # rule on every cell is an independent reference
        rng = np.random.default_rng(45)
        for d, x_far, nodes in ((4, 1.5, 10), (5, 1.4, 6)):
            v = Potential.tabulated(d, [-0.5] * d, 0.5, rng.uniform(0.0, 1.0, (2,) * d))
            t, w = np.polynomial.legendre.leggauss(nodes)
            x = np.zeros(d)
            x[0] = x_far
            total = 0.0
            for idx in np.ndindex(*v.values.shape):
                lo = v.origin + v.spacing * np.array(idx)
                axes = [lo[i] + 0.25 * (t + 1.0) for i in range(d)]
                pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
                wts = np.prod(np.stack(np.meshgrid(*([0.25 * w] * d), indexing="ij")),
                              axis=0).ravel()
                r = np.linalg.norm(pts - x, axis=1)
                total += v.values[idx] * float(wts @ r ** (2.0 - d))
            assert moment_free(x, math.inf, v, 1) == \
                pytest.approx(green.green_constant(d) * total, rel=1e-9)

    def test_second_moment_matches_independent_monte_carlo(self):
        # 2 int G(0, z) v(z) m1(z) dz over 10^6 points z with the exact m1:
        # 1.7685 +- 0.0020 on the bloch_near table
        m2 = moment_free([0, 0, 0], math.inf, NEAR_TABLE, 2)
        assert abs(m2 - 1.7685) <= 2.0 * 0.0020
        assert m2 == pytest.approx(1.765604, rel=1e-5)

    @pytest.mark.parametrize("alpha", [0.01, -0.01])
    def test_gauge_series(self, alpha):
        # u = 1 + alpha m1 + alpha^2 m2 / 2 + alpha^3 m3 / 6 + alpha^4 m4 / 24 + ...
        x = np.zeros(3)
        m = [_cell_moment(NEAR_TABLE, x, k) for k in (1, 2, 3, 4)]
        series = 1.0 + sum(alpha ** k * m[k - 1] / math.factorial(k) for k in (1, 2, 3))
        fourth = alpha**4 * m[3] / 24.0
        u = mgf_one_sided(x, NEAR_TABLE, alpha)
        assert abs(u - series - fourth) <= 0.1 * fourth
        assert m[:3] == [moment_free(x, math.inf, NEAR_TABLE, k) for k in (1, 2, 3)]

    def test_gauge_against_free_legs(self):
        # raw free legs to horizon 8,316 (4 x 400 R^2).  No tabulated mgf at
        # a finite horizon exists, so the legs carry the truncation bias
        # E exp(alpha Y(T)) - E exp(alpha Y): E Y - E Y(T) is 0.00916, so to
        # first order the bias is -alpha u 0.00916, +0.0029 (1.9 standard
        # errors) at alpha = -0.5 and -0.0087 (0.5) at alpha = 0.5.  The
        # gaps read +0.0030 and -0.0053
        cfg = EstimatorConfig(potential=NEAR_TABLE, x=np.zeros(3), free_horizon=8316.0,
                              h_fine=0.01, seed=2024, stream_channel=5, workers=2)
        sample = estimators._collect("free", 16_384, cfg)
        for alpha in (-0.5, 0.5):
            est = estimators._mgf_estimate(sample, alpha)
            exact = mgf_one_sided(np.zeros(3), NEAR_TABLE, alpha)
            assert abs(est.mean - exact) <= 3.0 * est.std_error + 1e-3 * exact

    def test_alpha1_and_the_blow_up(self):
        lo, hi = alpha1_interval(NEAR_TABLE)
        assert lo == -math.inf and hi == pytest.approx(1.200954, rel=1e-5)
        x = np.zeros(3)
        assert math.isfinite(mgf_one_sided(x, NEAR_TABLE, 0.75 * hi))
        assert mgf_one_sided(x, NEAR_TABLE, hi) == math.inf
        assert mgf_one_sided(x, NEAR_TABLE, 2.0 * hi) == math.inf
        # just below alpha1 the one-cell solve is already past its own pole
        with pytest.raises(ValueError, match="resolution of alpha1"):
            mgf_one_sided(x, NEAR_TABLE, 0.999 * hi)
        assert alpha1_interval(NEAR_TABLE.with_height_factor(-1.0)) == (-hi, math.inf)

    def test_signed_table_has_two_ends(self):
        v = Potential.tabulated(3, [-0.6] * 3, 0.3,
                                np.random.default_rng(7).uniform(-0.5, 1.0, (4, 4, 4)))
        lo, hi = alpha1_interval(v)
        assert -math.inf < lo < 0.0 < hi < math.inf
        assert alpha1_interval(v.with_height_factor(-1.0)) == (-hi, -lo)
        # the negative side is far out: there alpha v damps the positive cells
        # so hard that a call at lo / 2 is refused, but not at alpha = -2
        assert 0.0 < mgf_one_sided(np.zeros(3), v, -2.0) < 1.0
        assert 1.0 < mgf_one_sided(np.zeros(3), v, 0.5 * hi) < math.inf
        assert mgf_one_sided(np.zeros(3), v, 1.01 * lo) == math.inf

    def test_staircase_ball(self):
        # a 15^3 staircase of the unit ball: alpha1 near pi^2 / 8, E Y^2 near 5/3
        n = 15
        h = 2.2 / n
        ax = -1.1 + h * (np.arange(n) + 0.5)
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
        v = Potential.tabulated(3, [-1.1] * 3, h, ((X**2 + Y**2 + Z**2) <= 1.0).astype(float))
        assert alpha1_interval(v)[1] == pytest.approx(math.pi**2 / 8.0, rel=0.05)
        assert moment_free([0, 0, 0], math.inf, v, 2) == pytest.approx(5.0 / 3.0, rel=0.05)
        assert moment_free([0, 0, 0], math.inf, v, 3) == pytest.approx(61.0 / 15.0, rel=0.08)

    @pytest.mark.parametrize("lam, c", [(0.5, 1.0), (2.0, -0.7)])
    def test_scaling(self, lam, c):
        # z -> lam z scales E Y^k by lam^(2k) and the gauge's alpha by lam^-2;
        # v -> c v scales E Y^k by c^k: the sub-cell grids scale along
        x = np.array([0.2, -0.1, 0.3])
        zoom = SMALL_TABLE.dilated(lam).with_height_factor(c)
        for k in (1, 2, 3):
            assert moment_free(lam * x, math.inf, zoom, k) == \
                pytest.approx((c * lam * lam) ** k * moment_free(x, math.inf, SMALL_TABLE, k),
                              rel=1e-11)
        assert mgf_one_sided(lam * x, zoom, 0.3 / (c * lam * lam)) == \
            pytest.approx(mgf_one_sided(x, SMALL_TABLE, 0.3), rel=1e-11)

    def test_refused_beyond_the_declared_error(self):
        # near alpha1 on a coarse table the Romberg step moves u by more
        # than the declared error allows
        hi = alpha1_interval(SMALL_TABLE)[1]
        with pytest.raises(ValueError, match="declared relative error"):
            mgf_one_sided(np.zeros(3), SMALL_TABLE, 0.9 * hi)
