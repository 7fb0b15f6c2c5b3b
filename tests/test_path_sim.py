"""Sampler laws, grid policies, path-integral quadrature and reproducibility."""

import math

import numpy as np
import pytest

from bridgeint.estimators import EstimatorConfig
from bridgeint.gaussian import bridge_marginal
from bridgeint.path_sim import (
    TimeGrid,
    bridge_integral_batch,
    free_integral_batch,
    stream,
)
from bridgeint.potentials import Potential

BALL = Potential.ball_indicator(3, 1.0)
ZERO = Potential.ball_indicator(3, 1.0, height=0.0)


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.uniform(2.0, 0.3)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.0
        assert np.all(g.steps <= 0.3 + 1e-12)
        assert np.all(np.diff(g.nodes) > 0)

    def test_endpoint_refined_structure(self):
        t = 25.0
        g = TimeGrid.endpoint_refined(t, u=4.0, h_fine=0.05, h_coarse=1.0)
        nodes = g.nodes
        assert nodes[0] == 0.0 and nodes[-1] == t
        fine_left = nodes[nodes <= 4.0]
        assert np.all(np.diff(fine_left) <= 0.05 + 1e-12)
        fine_right = nodes[nodes >= t - 4.0]
        assert np.all(np.diff(fine_right) <= 0.05 + 1e-12)
        assert np.all(g.steps <= 1.0 + 1e-12)

    def test_endpoint_refined_defaults(self):
        # u = sqrt(t), h_coarse = min(1, t/100): t/100 rules at t=9, 1 at t=400
        for t, u, h_coarse in ((9.0, 3.0, 0.09), (400.0, 20.0, 1.0)):
            g = TimeGrid.endpoint_refined(t)
            explicit = TimeGrid.endpoint_refined(t, u=u, h_coarse=h_coarse)
            assert np.array_equal(g.nodes, explicit.nodes)
            assert u in g.nodes and t - u in g.nodes
            bulk = g.steps[(g.nodes[:-1] >= u) & (g.nodes[1:] <= t - u)]
            assert bulk.max() <= h_coarse + 1e-12
            assert bulk.max() > 0.5 * h_coarse

    def test_small_horizon_collapses_to_fine(self):
        g = TimeGrid.endpoint_refined(0.5, u=1.0, h_fine=0.1)
        assert np.all(g.steps <= 0.1 + 1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.5, 1.0]))


class TestBridgeSpecValidation:
    """The law checks: a transient dimension, and finite path endpoints."""

    def test_transience_required(self):
        with pytest.raises(ValueError, match="d >= 3"):
            EstimatorConfig(potential=Potential.ball_indicator(2, 1.0),
                            x=np.zeros(2), y=np.zeros(2), t=1.0)

    def test_finite_endpoints(self):
        grid = TimeGrid.uniform(1.0, 0.5)
        with pytest.raises(ValueError, match="finite"):
            bridge_integral_batch(np.array([np.nan, 0, 0]), np.zeros(3), grid, BALL,
                                  stream(0, 0), 2)
        with pytest.raises(ValueError, match="finite"):
            bridge_integral_batch(np.zeros(3), np.array([0, np.inf, 0]), grid, BALL,
                                  stream(0, 0), 2)
        with pytest.raises(ValueError, match="finite"):
            free_integral_batch(np.array([np.nan, 0, 0]), grid, BALL, stream(0, 0), 2)


def _bridge_positions(x, y, grid, seed, n=1):
    """Every node of n bridge paths, shape (nodes, n, d)."""
    _, rec = bridge_integral_batch(x, y, grid, ZERO, stream(seed, 0), n,
                                   record_idx=range(grid.nodes.size))
    return rec


class TestBridgeSampler:
    def test_two_node_grid_is_deterministic(self):
        x, y = np.zeros(3), np.array([1.0, 2.0, 3.0])
        grid = TimeGrid(np.array([0.0, 4.0]))
        a = _bridge_positions(x, y, grid, 0, n=3)
        assert np.array_equal(a, _bridge_positions(x, y, grid, 1, n=3))
        assert np.all(a[0] == x)
        assert np.all(a[-1] == y)

    def test_terminal_pinned_exactly(self):
        x, y = np.zeros(3), np.array([0.3, -0.7, 1.1])
        grid = TimeGrid.uniform(2.0, 0.1)
        _, rec = bridge_integral_batch(x, y, grid, BALL, stream(5, 0), 64,
                                       record_idx=[grid.nodes.size - 1])
        assert np.all(rec[0] == y)

    def test_seed_determinism_bitwise(self):
        x, y = np.zeros(3), np.ones(3)
        grid = TimeGrid.uniform(3.0, 0.05)
        a = _bridge_positions(x, y, grid, 123, n=4)
        b = _bridge_positions(x, y, grid, 123, n=4)
        assert np.array_equal(a, b)
        c = _bridge_positions(x, y, grid, 124, n=4)
        assert not np.array_equal(a, c)
        va, _ = bridge_integral_batch(x, y, grid, BALL, stream(123, 0), 4)
        vb, _ = bridge_integral_batch(x, y, grid, BALL, stream(123, 0), 4)
        assert np.array_equal(va, vb)

    def test_marginal_law(self):
        # sampled mean and per-coordinate variance at grid nodes vs closed form
        n = 30_000
        t = 10.0
        x, y = np.zeros(3), np.array([1.0, 0.0, 0.0])
        grid = TimeGrid.uniform(t, 0.5)
        idx = [4, 10, 16]
        _, rec = bridge_integral_batch(x, y, grid, ZERO, stream(2024, 0), n,
                                       record_idx=idx)
        for j, i in enumerate(idx):
            s = grid.nodes[i]
            mean, var = bridge_marginal(x, y, t, s)
            se_mean = math.sqrt(var / n)
            se_var = var * math.sqrt(2.0 / (n - 1))
            assert np.all(np.abs(rec[j].mean(axis=0) - mean) < 4.0 * se_mean)
            assert np.all(np.abs(rec[j].var(axis=0, ddof=1) - var) < 4.0 * se_var)

    def test_coordinates_uncorrelated(self):
        n = 40_000
        grid = TimeGrid.uniform(6.0, 1.0)
        _, rec = bridge_integral_batch(np.zeros(3), np.zeros(3), grid, ZERO, stream(9, 0),
                                       n, record_idx=[3])
        z = rec[0]
        corr = np.corrcoef(z.T)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 4.0 / math.sqrt(n))


class TestFreeSampler:
    def test_variance_and_mean(self):
        n = 50_000
        x = np.array([0.5, -0.5, 1.0])
        grid = TimeGrid.uniform(4.0, 0.5)
        path_vals, term = free_integral_batch(x, grid, ZERO, stream(31, 0), n)
        s = grid.horizon
        se_mean = math.sqrt(s / n)
        assert np.all(np.abs(term.mean(axis=0) - x) < 4.0 * se_mean)
        se_var = s * math.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(term.var(axis=0, ddof=1) - s) < 4.0 * se_var)

    def test_disjoint_increments_uncorrelated(self):
        n = 30_000
        grid = TimeGrid(np.array([0.0, 1.0, 2.0, 3.0]))
        rngs = stream(7, 0)
        pos = np.zeros((n, 3))
        incs = []
        for ds in np.diff(grid.nodes):
            step = math.sqrt(ds) * rngs.standard_normal((n, 3))
            incs.append(step[:, 0])
            pos += step
        rho = np.corrcoef(incs[0], incs[2])[0, 1]
        assert abs(rho) < 4.0 / math.sqrt(n)

    def test_free_path_start_and_shape(self):
        # one step: the left node is the start point x, the terminal point
        # is x plus one scaled normal block of the same stream
        x = np.array([2.0, -1.0, 0.5])
        grid = TimeGrid(np.array([0.0, 0.25]))
        at_x = Potential.ball_indicator(3, 0.1, center=x)
        vals, term = free_integral_batch(x, grid, at_x, stream(11, 0), 16)
        assert vals.shape == (16,) and term.shape == (16, 3)
        assert np.all(vals == 0.25)
        expected = x + math.sqrt(0.25) * stream(11, 0).standard_normal((16, 3))
        assert np.array_equal(term, expected)


class TestIntegrateAlongPath:
    """Left-node quadrature sum_j v(z_j) (s_{j+1} - s_j) of the batch engines."""

    def test_zero_potential(self):
        grid = TimeGrid.uniform(2.0, 0.1)
        free, _ = free_integral_batch(np.zeros(3), grid, ZERO, stream(3, 0), 32)
        bridge, _ = bridge_integral_batch(np.zeros(3), np.zeros(3), grid, ZERO,
                                          stream(3, 0), 32)
        assert np.all(free == 0.0) and np.all(bridge == 0.0)

    def test_constant_inside_huge_ball(self):
        big = Potential.ball_indicator(3, 50.0, height=2.5)
        grid = TimeGrid.uniform(1.0, 0.05)
        bridge, rec = bridge_integral_batch(np.zeros(3), np.array([1.0, 0.0, 0.0]), grid,
                                            big, stream(17, 0), 8,
                                            record_idx=range(grid.nodes.size))
        assert np.all(np.linalg.norm(rec, axis=2) < 50.0)
        assert np.allclose(bridge, 2.5 * 1.0, rtol=1e-12, atol=0.0)
        free, term = free_integral_batch(np.zeros(3), grid, big, stream(17, 0), 8)
        assert np.all(np.linalg.norm(term, axis=1) < 50.0)
        assert np.allclose(free, 2.5 * 1.0, rtol=1e-12, atol=0.0)

    def test_straight_miss(self):
        # a two-node bridge is the straight segment (5,0,0) -> (6,0,0)
        grid = TimeGrid(np.array([0.0, 1.0]))
        vals, _ = bridge_integral_batch(np.array([5.0, 0, 0]), np.array([6.0, 0, 0]), grid,
                                        BALL, stream(0, 0), 4)
        assert np.all(vals == 0.0)

    def test_dimension_mismatch(self):
        grid = TimeGrid(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="dimension"):
            free_integral_batch(np.zeros(4), grid, BALL, stream(0, 0), 2)


class TestIntegralDraws:
    def test_batch_of_one_draws(self):
        grid = TimeGrid.endpoint_refined(5.0, h_fine=0.05)
        z, _ = bridge_integral_batch(np.zeros(3), np.zeros(3), grid, BALL, stream(12, 0), 1)
        assert z.shape == (1,) and z[0] >= 0.0
        again, _ = bridge_integral_batch(np.zeros(3), np.zeros(3), grid, BALL,
                                         stream(12, 0), 1)
        assert z[0] == again[0]
        y, _ = free_integral_batch(np.zeros(3), grid, BALL, stream(12, 0), 1)
        assert y[0] >= 0.0

    def test_zero_potential_draws(self):
        grid = TimeGrid.uniform(5.0, 0.1)
        bridge, _ = bridge_integral_batch(np.zeros(3), np.zeros(3), grid, ZERO,
                                          stream(1, 0), 1)
        assert bridge[0] == 0.0
        # the two-sided integral is the sum of two free legs on separate streams
        vx, _ = free_integral_batch(np.zeros(3), grid, ZERO, stream(1, 0), 1)
        vy, _ = free_integral_batch(np.zeros(3), grid, ZERO, stream(1, 1 << 32), 1)
        assert vx[0] + vy[0] == 0.0

    def test_two_sided_legs_exchangeable(self):
        # same start points: the two legs are identically distributed
        n = 20_000
        grid = TimeGrid.endpoint_refined(50.0, h_fine=0.05, h_coarse=0.5)
        vx, _ = free_integral_batch(np.zeros(3), grid, BALL, stream(41, 0), n)
        vy, _ = free_integral_batch(np.zeros(3), grid, BALL, stream(41, 1 << 32), n)
        se = math.sqrt(np.var(vx) / n + np.var(vy) / n)
        assert abs(vx.mean() - vy.mean()) < 4.0 * se

    def test_truncation_adequacy_with_tail_potential(self):
        # adding the closed-form expected tail makes the mean horizon-stable
        from bridgeint.estimators import EstimatorConfig, mc_moment

        n = 20_000
        base = dict(potential=BALL, x=np.zeros(3), h_fine=0.02, h_coarse=0.5, seed=8)
        m1 = mc_moment("free", 1, n, EstimatorConfig(free_horizon=100.0, **base))
        m2 = mc_moment("free", 1, n, EstimatorConfig(free_horizon=200.0,
                                                     stream_channel=1, **base))
        combined = math.hypot(m1.std_error, m2.std_error)
        assert abs(m1.mean - m2.mean) < max(combined, 1e-3)

    def test_grid_refinement_consistency(self):
        from bridgeint.estimators import EstimatorConfig, mc_moment

        n = 20_000
        spec = dict(potential=BALL, x=np.zeros(3), y=np.zeros(3), t=8.0, seed=55)
        m_h = mc_moment("bridge", 1, n, EstimatorConfig(h_fine=0.02, h_coarse=0.08, **spec))
        m_h2 = mc_moment("bridge", 1, n, EstimatorConfig(h_fine=0.01, h_coarse=0.04,
                                                         stream_channel=1, **spec))
        combined = math.hypot(m_h.std_error, m_h2.std_error)
        # 3 sigma plus a discretization allowance that shrinks with h
        assert abs(m_h.mean - m_h2.mean) < 3.0 * combined + 0.02
