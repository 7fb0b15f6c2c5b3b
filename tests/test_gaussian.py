"""Exact-law checks: densities, bridge marginals, density ratio, convexity bound.

Expected values marked as frozen were computed with 30-digit mpmath
evaluations of the closed forms; quadrature normalization oracles use
tensor Gauss-Hermite rules built here, independent of the code under test.
"""

import math

import numpy as np
import pytest

from bridgeint.gaussian import (
    TimePoints,
    bridge_marginal,
    density_ratio,
    jensen_lower_bound,
    log_transition_density,
    transition_density,
)

# frozen via mpmath (30 digits)
Q_T1_X0_D3 = 0.06349363593424097
Q_T05_E1_D3 = 0.06606641012899384

rng = np.random.default_rng(1234)


def gauss_hermite_nodes(m, dim):
    """Hermite rule recast as a plain quadrature: sum w_i g(x_i) ~ int g dx.

    The Gaussian weight of the underlying rule is divided back out, so the
    integrand under test is evaluated as-is.
    """
    x, w = np.polynomial.hermite_e.hermegauss(m)
    mesh = np.meshgrid(*([x] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    wts = np.prod(np.stack(np.meshgrid(*([w] * dim), indexing="ij")), axis=0).ravel()
    wts = wts * np.exp(0.5 * np.sum(pts * pts, axis=1))
    return pts, wts


class TestTransitionDensity:
    def test_origin_value(self):
        assert transition_density(1.0, [0.0, 0.0, 0.0]) == pytest.approx(Q_T1_X0_D3, rel=1e-14)

    def test_frozen_off_origin(self):
        assert transition_density(0.5, [1.0, 0.0, 0.0]) == pytest.approx(Q_T05_E1_D3, rel=1e-14)

    def test_symmetry(self):
        for _ in range(20):
            x = rng.normal(size=3)
            assert transition_density(2.0, x) == transition_density(2.0, -x)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_normalization_gauss_hermite(self, d):
        t = 0.7
        pts, wts = gauss_hermite_nodes(10, d)
        vals = np.array([transition_density(t, math.sqrt(t) * p) for p in pts])
        # jacobian t^{d/2} from z = sqrt(t) xi
        assert float(np.sum(wts * vals)) * t ** (d / 2.0) == pytest.approx(1.0, abs=1e-6)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            transition_density(0.0, [1.0])
        with pytest.raises(ValueError):
            log_transition_density(-1.0, [1.0])


class TestFreeJointDensity:
    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError):
            TimePoints((1.0, 0.5))


class TestBridgeJointDensity:
    def test_interior_times_validated(self):
        with pytest.raises(ValueError):
            TimePoints((2.5,), 2.0)


class TestBridgeMarginal:
    def test_exact_values(self):
        mean, var = bridge_marginal(np.zeros(3), np.array([1.0, 0, 0]), 10.0, 4.0)
        assert np.allclose(mean, [0.4, 0.0, 0.0])
        assert var == pytest.approx(2.4, rel=1e-15)

    def test_pinned_start_limit(self):
        mean, var = bridge_marginal(np.array([2.0, 1.0]), np.array([0.0, 0.0]), 1.0, 1e-12)
        assert np.allclose(mean, [2.0, 1.0], atol=1e-11)
        assert var < 1e-11

    def test_variance_peaks_at_midpoint(self):
        t = 7.0
        _, v_mid = bridge_marginal(np.zeros(3), np.zeros(3), t, t / 2.0)
        assert v_mid == pytest.approx(t / 4.0, rel=1e-15)
        s = np.linspace(0.01, t - 0.01, 101)
        vs = [bridge_marginal(np.zeros(3), np.zeros(3), t, si)[1] for si in s]
        assert max(vs) <= v_mid + 1e-12

    def test_domain_errors(self):
        for s in (0.0, 10.0, -1.0, 11.0):
            with pytest.raises(ValueError):
                bridge_marginal(np.zeros(3), np.zeros(3), 10.0, s)


class TestDensityRatio:
    def test_no_interior_points_gives_one(self):
        tp = TimePoints((), 5.0)
        q = density_ratio(np.zeros(3), np.array([2.0, -1.0, 0.5]), tp,
                          np.empty((0, 3)), 0)
        assert q == 1.0

    def test_repeated_point_half_horizon(self):
        # x = y = 0 and z_j = z_{j+1} with gap t/2: only the power factor remains
        t = 4.0
        z = np.array([[0.7, -0.2, 0.1], [0.7, -0.2, 0.1]])
        tp = TimePoints((1.0, 3.0), t)
        q = density_ratio(np.zeros(3), np.zeros(3), tp, z, 1)
        assert q == pytest.approx(2.0 ** -1.5, rel=1e-14)

    def test_ratio_approaches_one_for_long_horizons(self):
        x = np.zeros(3)
        y = np.array([1.0, 0.0, 0.0])
        z = np.array([[0.5, 0.0, 0.0], [-0.3, 0.2, 0.0]])
        devs = []
        for t in (1e2, 1e3, 1e4):
            u = math.sqrt(t)
            tp = TimePoints((u / 2.0, t - u / 2.0), t)
            devs.append(abs(density_ratio(x, y, tp, z, 1) - 1.0))
        assert devs[0] > devs[1] > devs[2]

    def test_index_out_of_range(self):
        tp = TimePoints((1.0,), 2.0)
        with pytest.raises(ValueError):
            density_ratio(np.zeros(3), np.zeros(3), tp, [[0.0, 0, 0]], 2)


class TestJensenLowerBound:
    @pytest.mark.parametrize("k,d", [(1, 3), (2, 3), (3, 4), (5, 5)])
    def test_equality_at_uniform_spacing(self, k, d):
        t = 3.0
        s = tuple(t * (j + 1) / (k + 1) for j in range(k))
        total, bound = jensen_lower_bound(TimePoints(s, t), d)
        assert total == pytest.approx(bound, abs=1e-12)

    def test_random_configurations_dominate_bound(self):
        for _ in range(500):
            d = int(rng.integers(3, 6))
            k = int(rng.integers(1, 7))
            t = float(rng.uniform(0.5, 20.0))
            s = np.sort(rng.uniform(0.0, t, size=k))
            s = np.clip(s, 1e-9, t - 1e-9)
            if np.any(np.diff(s) <= 0):
                continue
            total, bound = jensen_lower_bound(TimePoints(tuple(s), t), d)
            assert total >= bound - 1e-12

    def test_low_dimension_rejected(self):
        with pytest.raises(ValueError):
            jensen_lower_bound(TimePoints((0.5,), 1.0), 1)


class TestContainerValidation:
    def test_timepoints_require_positive_horizon(self):
        with pytest.raises(ValueError):
            TimePoints((0.5,), -1.0)

    def test_empty_time_points_allowed(self):
        assert TimePoints((), 2.0).k == 0
