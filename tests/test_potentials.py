"""Potential kinds, Green potentials and the occupation-integral bound K1.

The unit-ball Green value is verified against a brute-force 3-d midpoint
quadrature, independent of the closed-form shell decomposition used by the
implementation.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgeint.green import (
    BoundsReport,
    alpha1_interval,
    ball_green_integral,
    green_potential,
    k1_bound,
    mgf_one_sided,
)
from bridgeint.potentials import Potential, _row_norms

rng = np.random.default_rng(77)


def brute_green_unit_ball(y, cells=160):
    """Midpoint quadrature of int_{|z|<=1} (2 pi |z - y|)^(-1) dz."""
    ax = -1.0 + (np.arange(cells) + 0.5) * (2.0 / cells)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    inside = X**2 + Y**2 + Z**2 <= 1.0
    pts = np.stack([X[inside], Y[inside], Z[inside]], axis=-1)
    dist = np.linalg.norm(pts - np.asarray(y), axis=1)
    dist = np.maximum(dist, 1e-9)
    return float(np.sum(1.0 / (2.0 * math.pi * dist)) * (2.0 / cells) ** 3)


class TestPotentialKinds:
    def test_ball_indicator_evaluation(self):
        v = Potential.ball_indicator(3, 1.0, height=2.5)
        assert v(np.zeros(3)) == 2.5
        assert v(np.array([1.0, 0.0, 0.0])) == 2.5  # boundary inclusive
        assert v(np.array([1.0001, 0.0, 0.0])) == 0.0
        assert v.sup_bound == 2.5 and v.support_radius == 1.0

    def test_radial_step_bands(self):
        v = Potential.radial_step(3, [0.5, 1.5], [2.0, -1.0])
        assert v(np.array([0.2, 0, 0])) == 2.0
        assert v(np.array([1.0, 0, 0])) == -1.0
        assert v(np.array([2.0, 0, 0])) == 0.0
        assert v.sup_bound == 2.0
        assert v.bands() == [(0.0, 0.5, 2.0), (0.5, 1.5, -1.0)]

    @pytest.mark.parametrize("v", [
        Potential.ball_indicator(3, 1.3, height=2.5, center=[0.2, -0.1, 0.4]),
        Potential.radial_step(5, [0.5, 1.0, 2.0], [3.0, -1.0, 2.0]),
        Potential.ball_indicator(9, 1.0),
    ], ids=["ball_d3", "step_d5", "ball_d9"])
    def test_radial_evaluation_bit_identical_to_norm_rule(self, v):
        # the reference rule: np.linalg.norm, then the band found by searchsorted
        gen = np.random.default_rng(8)
        pts = v.center + gen.normal(size=(20000, v.dim)) * gen.uniform(0.1, 3.0, (20000, 1))
        edge = np.concatenate([np.nextafter(b, [0.0, b, 9.0]) for b in v.breakpoints])
        on_axis = np.zeros((edge.size, v.dim))
        on_axis[:, -1] = edge
        pts = np.concatenate((pts, v.center + on_axis, np.full((1, v.dim), np.nan)))
        u = np.linalg.norm(pts - v.center, axis=-1)
        assert np.array_equal(_row_norms(pts, v.center), u, equal_nan=True)
        idx = np.searchsorted(v.breakpoints, u, side="left")
        expected = np.concatenate((v.heights, [0.0]))[np.minimum(idx, v.heights.size)]
        assert np.array_equal(v(pts), expected)

    @pytest.mark.parametrize("v", [
        Potential.ball_indicator(3, 1.0, height=2.5),
        Potential.radial_step(3, [0.6, 1.2], [1.2, 0.4]),
        Potential.radial_step(3, [0.3, 0.6, 1.2], [1.0, -2.0, 0.5]),
    ], ids=["ball", "two_bands", "three_bands"])
    def test_profile_matches_searchsorted_rule(self, v):
        # on the band edges, beside them, NaN, +-inf, 0 and far out
        edges = v.breakpoints
        u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 3.0),
                            [0.0, 0.05, 5.0, 1e300, np.nan, np.inf, -np.inf],
                            np.linspace(0.0, 2.0, 41)])
        idx = np.searchsorted(edges, u, side="left")
        expected = np.concatenate((v.heights, [0.0]))[np.minimum(idx, len(v.heights))]
        assert np.array_equal(v.profile(u), expected)
        for ui, ei in zip(u, expected):
            one = v.profile(ui)
            assert type(one) is float and one == ei

    def test_sup_and_support_spot_checks(self):
        v = Potential.radial_step(3, [0.4, 1.1], [1.5, 0.25], center=[1.0, 0.0, 0.0])
        pts = rng.normal(scale=2.0, size=(4000, 3))
        vals = v(pts)
        assert np.all(np.abs(vals) <= v.sup_bound)
        outside = np.linalg.norm(pts - v.center, axis=1) > v.support_radius
        assert np.all(vals[outside] == 0.0)

    def test_tabulated_nearest_neighbor(self):
        vals = np.arange(8.0).reshape(2, 2, 2)
        v = Potential.tabulated(3, [0.0, 0.0, 0.0], 1.0, vals)
        assert v(np.array([0.2, 0.3, 0.9])) == vals[0, 0, 0]
        assert v(np.array([1.5, 1.5, 1.5])) == vals[1, 1, 1]
        assert v(np.array([-0.1, 0.5, 0.5])) == 0.0
        lo, hi = v.support_box()
        assert np.allclose(lo, 0.0) and np.allclose(hi, 2.0)

    def test_transforms(self):
        v = Potential.ball_indicator(3, 1.0)
        assert v.with_height_factor(3.0)(np.zeros(3)) == 3.0
        w = v.dilated(2.0)  # v(z/2): support radius 2
        assert w(np.array([1.5, 0, 0])) == 1.0 and w.support_radius == 2.0
        s = v.shifted([1.0, 0.0, 0.0])
        assert s(np.array([1.0, 0, 0])) == 1.0 and s(np.zeros(3)) == 1.0

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Potential.ball_indicator(3, 0.0)
        with pytest.raises(ValueError):
            Potential.radial_step(3, [1.0, 0.5], [1.0, 1.0])
        with pytest.raises(ValueError):
            Potential.tabulated(3, [0, 0, 0], 0.5, np.zeros((2, 2)))

    @pytest.mark.parametrize("shape", [(1, 1, 0), (0, 2, 2), (2, 0, 3)])
    def test_empty_table_rejected(self, shape):
        with pytest.raises(ValueError, match="at least one cell on every axis"):
            Potential.tabulated(3, [0, 0, 0], 0.5, np.zeros(shape))


def reference_lookup(origin, spacing, table, z):
    """The cell rule of the tabulated kind, index by index: floor, inside test, clip.

    Reads ``table`` itself, not the potential's copy of it.  Valid for
    finite points whose cell index fits an int64.
    """
    pts = np.atleast_2d(np.asarray(z, dtype=float))
    idx = np.floor((pts - origin) / spacing).astype(np.int64)
    shape = np.asarray(table.shape)
    inside = np.all((idx >= 0) & (idx < shape), axis=-1)
    idx = np.clip(idx, 0, shape - 1)
    return np.where(inside, table[tuple(idx.T)], 0.0)


@st.composite
def _tables(draw):
    d = draw(st.integers(3, 5))
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=d, max_size=d)))
    origin = np.asarray(draw(st.lists(st.floats(-5.0, 5.0), min_size=d, max_size=d)))
    spacing = draw(st.floats(1e-3, 3.0))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = gen.uniform(-2.0, 2.0, shape)
    # the same cells in three memory layouts: C order, Fortran order, and
    # the transposed view of a table drawn with the axes reversed
    tables = [values, np.asfortranarray(values), gen.uniform(-2.0, 2.0, shape[::-1]).T]
    n = np.asarray(shape)
    inside = origin + spacing * n * gen.uniform(0.0, 1.0, (300, d))
    far = origin + spacing * gen.uniform(-1e6, 1e6, (100, d))
    # exactly on cell faces, the lower and upper table faces and beyond included
    faces = origin + spacing * gen.integers(-2, n + 3, (300, d))
    mixed = np.where(gen.uniform(size=(300, d)) < 0.5, faces, inside)
    return origin, spacing, tables, np.concatenate((inside, far, faces, mixed))


class TestTabulatedLookup:
    """The flat padded-table gather reads the same cell as the index-by-index rule."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=_tables(), factor=st.floats(-3.0, 3.0), lam=st.floats(0.1, 10.0),
           shift=st.floats(-4.0, 4.0))
    def test_matches_reference(self, case, factor, lam, shift):
        origin, h, tables, pts = case
        d = len(origin)
        delta = np.full(d, shift)
        for table in tables:
            v = Potential.tabulated(d, origin, h, table)
            assert np.array_equal(v.values, table)
            copies = [(v, origin, h, table),
                      (v.with_height_factor(factor), origin, h, factor * table),
                      (v.dilated(lam), lam * origin, lam * h, table),
                      (v.shifted(delta), origin + delta, h, table)]
            for w, o, s, t in copies:
                ref = reference_lookup(o, s, t, pts)
                assert np.array_equal(w(pts), ref)
                one = w(pts[-1])
                assert type(one) is float
                assert one == ref[-1]

    def test_table_stored_once(self):
        vals = np.asfortranarray(np.arange(1.0, 25.0).reshape(2, 3, 4))
        v = Potential.tabulated(3, [0.0, 0.0, 0.0], 1.0, vals)
        assert np.array_equal(v.values, vals)
        assert np.shares_memory(v.values, v._flat)
        assert v(np.array([1.5, 2.5, 3.5])) == vals[1, 2, 3]

    def test_non_finite_far_and_upper_face_read_zero(self):
        vals = np.arange(1.0, 9.0).reshape(2, 2, 2)
        v = Potential.tabulated(3, [0.0, 0.0, 0.0], 0.5, vals)
        nan, inf = float("nan"), float("inf")
        pts = np.array([[nan, 0.5, 0.5], [inf, 0.5, 0.5], [-inf, 0.5, 0.5],
                        [0.5, 0.5, nan], [1e300, 0.5, 0.5], [-1e300, 0.5, 0.5],
                        [1.0, 0.5, 0.5], [0.5, 0.5, 1.0], [nan, nan, nan]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = v(pts)
            assert [v(p) for p in pts] == [0.0] * len(pts)
        assert np.array_equal(out, np.zeros(len(pts)))
        # the lower face is inside, the upper face of the last cell is not
        assert v(np.array([0.0, 0.0, 0.0])) == 1.0
        assert v(np.array([np.nextafter(1.0, 0.0)] * 3)) == 8.0


class TestGreenPotential:
    def test_unit_ball_center_exact(self):
        v = Potential.ball_indicator(3, 1.0)
        assert green_potential(v, np.zeros(3)) == pytest.approx(1.0, rel=1e-12)

    def test_brute_force_oracle(self):
        v = Potential.ball_indicator(3, 1.0)
        for y in (np.zeros(3), np.array([0.7, 0.0, 0.0]), np.array([0.0, 1.5, 0.0])):
            assert green_potential(v, y) == pytest.approx(
                brute_green_unit_ball(y), rel=2e-3)

    def test_exterior_decay(self):
        v = Potential.ball_indicator(3, 1.0)
        g10 = green_potential(v, np.array([10.0, 0, 0]))
        g20 = green_potential(v, np.array([20.0, 0, 0]))
        assert g20 / g10 == pytest.approx(0.5, rel=1e-12)

    def test_tabulated_matches_staircase_mass(self):
        n = 15
        h = 2.2 / n
        ax = -1.1 + h * (np.arange(n) + 0.5)
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
        vt = Potential.tabulated(3, [-1.1] * 3, h, ((X**2 + Y**2 + Z**2) <= 1.0).astype(float))
        val = green_potential(vt, np.zeros(3))
        assert val == pytest.approx(1.0, rel=0.05)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_ball_green_integral_continuity(self, d):
        R = 1.3
        inner = ball_green_integral(R, R - 1e-9, d)
        outer = ball_green_integral(R, R + 1e-9, d)
        assert inner == pytest.approx(outer, rel=1e-6)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_ball_green_integral_vectorized(self, d):
        # one array call gives each scalar call's value, both sides of the radius
        b = np.array([0.0, 0.4, 1.3, 2.0, 7.5])
        assert np.array_equal(ball_green_integral(1.3, b, d),
                              [ball_green_integral(1.3, bi, d) for bi in b])


class TestK1Bound:
    def test_unit_ball_flagship(self):
        v = Potential.ball_indicator(3, 1.0)
        rep = k1_bound(v)
        assert rep.k1 == pytest.approx(1.0, abs=1e-12)
        assert rep.alpha0 == pytest.approx(1.0, abs=1e-12)
        # the sup is attained at the center probe
        center_val = green_potential(v, v.center, absolute=True)
        assert rep.k1 == pytest.approx(center_val, rel=1e-14)

    def test_zero_potential_degenerate(self):
        v = Potential.ball_indicator(3, 1.0, height=0.0)
        rep = k1_bound(v)
        assert rep.k1 == 0.0 and rep.alpha0 is None and rep.degenerate

    def test_height_linearity(self):
        v1 = Potential.ball_indicator(3, 1.0, height=1.0)
        v2 = v1.with_height_factor(2.0)
        r1, r2 = k1_bound(v1), k1_bound(v2)
        assert r2.k1 == pytest.approx(2.0 * r1.k1, rel=1e-12)
        assert r2.alpha0 == pytest.approx(0.5 * r1.alpha0, rel=1e-12)

    def test_monotone_in_magnitude(self):
        small = Potential.radial_step(3, [0.5, 1.0], [0.5, 0.25])
        big = Potential.radial_step(3, [0.5, 1.0], [1.0, -0.5])
        probes = np.array([[0.0, 0, 0], [0.5, 0, 0], [1.5, 0, 0]])
        assert k1_bound(small, probes).k1 <= k1_bound(big, probes).k1

    def test_translation_invariance(self):
        v = Potential.radial_step(3, [0.6, 1.2], [1.2, 0.4])
        shift = np.array([3.0, -2.0, 1.0])
        r0 = k1_bound(v)
        r1 = k1_bound(v.shifted(shift))
        assert r1.k1 == pytest.approx(r0.k1, rel=1e-9)

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_dilation_scaling(self, lam):
        v = Potential.ball_indicator(3, 1.0)
        r0 = k1_bound(v)
        r1 = k1_bound(v.dilated(lam))
        assert r1.k1 == pytest.approx(lam**2 * r0.k1, rel=1e-6)

    def test_alpha0_k1_product(self):
        v = Potential.radial_step(3, [0.7], [1.7])
        rep = k1_bound(v)
        assert rep.k1 * rep.alpha0 == pytest.approx(1.0, rel=1e-14)

    def test_low_dimension_rejected(self):
        with pytest.raises(ValueError):
            k1_bound(Potential.ball_indicator(2, 1.0))

    def test_empty_probes_rejected(self):
        with pytest.raises(ValueError):
            k1_bound(Potential.ball_indicator(3, 1.0), probe_points=np.empty((0, 3)))


class TestDivergenceProbe:
    """Where the one-sided mgf diverges: the gauge's alpha1, radial and tabulated."""

    POTENTIALS = (Potential.ball_indicator(3, 1.0),
                  Potential.tabulated(3, [-0.5] * 3, 0.5, [[[1.0, 0.5], [0.25, 0.75]],
                                                           [[0.5, 1.0], [0.0, 0.5]]]))

    def test_alpha_zero_exact(self):
        for v in self.POTENTIALS:
            assert mgf_one_sided(v.center, v, 0.0) == 1.0

    def test_small_alpha_stable(self):
        # alpha0 / 2, where Khas'minskii's lemma guarantees a finite mgf
        for v in self.POTENTIALS:
            alpha = 0.5 * k1_bound(v).alpha0
            assert 1.0 < mgf_one_sided(v.center, v, alpha) < math.inf
            assert alpha1_interval(v)[1] > 2.0 * alpha

    def test_transition_on_wide_grid(self):
        grid = [0.5, 2.0, 8.0, 20.0, 40.0]
        for v in self.POTENTIALS:
            finite = [math.isfinite(mgf_one_sided(v.center, v, a)) for a in grid]
            assert finite[0] and not finite[-1]
            # one blow-up: finite below alpha1, infinite from it on
            alpha1 = alpha1_interval(v)[1]
            assert finite == [a < alpha1 for a in grid]

    def test_all_stable_bracket_is_open_above(self):
        # no alpha of a grid below alpha1 diverges
        v = Potential.ball_indicator(3, 1.0)
        assert all(math.isfinite(mgf_one_sided(v.center, v, a)) for a in (0.1, 0.3))
        assert alpha1_interval(v)[1] > 0.3

    def test_report_dict_roundtrip(self):
        rep = BoundsReport(k1=2.0, alpha0=0.5, probe_count=3)
        d = rep.as_dict()
        assert d["k1"] == 2.0 and d["alpha0"] == 0.5 and not d["degenerate"]
