"""Sampler laws, grid policies, path-integral quadrature and reproducibility."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgeint import path_sim
from bridgeint.estimators import EstimatorConfig
from bridgeint.gaussian import bridge_marginal
from bridgeint.path_sim import (
    _KAPPA,
    TimeGrid,
    _plan_steps,
    bridge_integral_batch,
    free_integral_batch,
    stream,
)
from bridgeint.potentials import Potential
from bridgeint.quadrature import QuadConfig, moment_bridge, moment_free

BALL = Potential.ball_indicator(3, 1.0)
ZERO = Potential.ball_indicator(3, 1.0, height=0.0)
STEP = Potential.radial_step(3, [0.3, 0.6, 1.2], [1.0, 2.0, 0.5])


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.uniform(2.0, 0.3)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.0
        assert np.all(g.steps <= 0.3 + 1e-12)
        assert np.all(np.diff(g.nodes) > 0)

    def test_endpoint_refined_structure(self):
        # fine windows of u = sqrt(t) = 5 at both ends, bulk steps of t/100
        t = 25.0
        g = TimeGrid.refined(t, h_fine=0.05)
        nodes = g.nodes
        assert nodes[0] == 0.0 and nodes[-1] == t
        fine_left = nodes[nodes <= 5.0]
        assert np.all(np.diff(fine_left) <= 0.05 + 1e-12)
        fine_right = nodes[nodes >= t - 5.0]
        assert np.all(np.diff(fine_right) <= 0.05 + 1e-12)
        assert np.all(g.steps <= 0.25 + 1e-12)

    def test_endpoint_refined_defaults(self):
        # u = sqrt(t), bulk step min(1, t/100): t/100 rules at t=9, 1 at t=400
        for t, u, h_coarse in ((9.0, 3.0, 0.09), (400.0, 20.0, 1.0)):
            g = TimeGrid.refined(t)
            assert u in g.nodes and t - u in g.nodes
            bulk = g.steps[(g.nodes[:-1] >= u) & (g.nodes[1:] <= t - u)]
            assert bulk.max() <= h_coarse + 1e-12
            assert bulk.max() > 0.5 * h_coarse
            assert np.all(g.steps[g.nodes[1:] <= u] <= 0.01 + 1e-12)

    def test_front_refined_has_one_window(self):
        # a free path's grid refines [0, sqrt(t)] only and steps coarse to t
        g = TimeGrid.refined(400.0, h_fine=0.05, both_ends=False)
        assert 20.0 in g.nodes and g.nodes[-1] == 400.0
        assert np.all(g.steps[g.nodes[1:] <= 20.0] <= 0.05 + 1e-12)
        assert np.allclose(g.steps[g.nodes[:-1] >= 20.0], 1.0, rtol=1e-9)

    def test_small_horizon_collapses_to_fine(self):
        # 2 sqrt(t) >= t: the windows cover [0, t]
        g = TimeGrid.refined(0.5, h_fine=0.1)
        assert np.all(g.steps <= 0.1 + 1e-12)

    @pytest.mark.parametrize("h_fine", [0.0, -0.1, math.inf, math.nan])
    def test_fine_step_must_be_positive_and_finite(self, h_fine):
        with pytest.raises(ValueError, match="h_fine"):
            TimeGrid.refined(10.0, h_fine=h_fine)

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
        # one step: the terminal point is x plus one scaled normal block of
        # the same stream, and the trapezoid rule weighs v at x and at the
        # terminal point by half the step each
        x = np.array([2.0, -1.0, 0.5])
        grid = TimeGrid(np.array([0.0, 0.25]))
        at_x = Potential.ball_indicator(3, 0.1, center=x)
        vals, term = free_integral_batch(x, grid, at_x, stream(11, 0), 16)
        assert vals.shape == (16,) and term.shape == (16, 3)
        expected = x + math.sqrt(0.25) * stream(11, 0).standard_normal((16, 3))
        assert np.array_equal(term, expected)
        assert np.array_equal(vals, 0.125 + 0.125 * at_x(expected))


class TestIntegrateAlongPath:
    """Quadrature of v along the path: trapezoid in the cohort, left-node after."""

    def test_zero_potential(self):
        grid = TimeGrid.uniform(2.0, 0.1)
        free, _ = free_integral_batch(np.zeros(3), grid, ZERO, stream(3, 0), 32)
        bridge, _ = bridge_integral_batch(np.zeros(3), np.zeros(3), grid, ZERO,
                                          stream(3, 0), 32)
        assert np.all(free == 0.0) and np.all(bridge == 0.0)

    def test_zero_potential_when_paths_skip(self):
        # from 6 e1 on a fine grid every path skips nodes from the first one
        grid = TimeGrid.uniform(2.0, 0.001)
        x = np.array([6.0, 0.0, 0.0])
        free, _ = free_integral_batch(x, grid, ZERO, stream(3, 0), 32)
        bridge, _ = bridge_integral_batch(x, np.zeros(3), grid, ZERO, stream(3, 0), 32)
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
        grid = TimeGrid.refined(5.0, h_fine=0.05)
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
        grid = TimeGrid.refined(50.0, h_fine=0.05)
        vx, _ = free_integral_batch(np.zeros(3), grid, BALL, stream(41, 0), n)
        vy, _ = free_integral_batch(np.zeros(3), grid, BALL, stream(41, 1 << 32), n)
        se = math.sqrt(np.var(vx) / n + np.var(vy) / n)
        assert abs(vx.mean() - vy.mean()) < 4.0 * se

    def test_raw_legs_match_the_horizon_oracle(self):
        # a raw free leg to T estimates E Y(T), whatever T: at T = 100 and
        # 200 the two sit about 0.016 apart
        from bridgeint.estimators import EstimatorConfig, mc_moment
        from bridgeint.quadrature import DEFAULT, moment_free

        n = 20_000
        base = dict(potential=BALL, x=np.zeros(3), h_fine=0.02, seed=8)
        for channel, horizon in enumerate((100.0, 200.0)):
            est = mc_moment("free", 1, n, EstimatorConfig(free_horizon=horizon,
                                                          stream_channel=channel, **base))
            exact = moment_free(np.zeros(3), horizon, BALL, 1)
            combined = math.hypot(est.std_error, DEFAULT.tolerance(1, BALL) * exact)
            assert abs(est.mean - exact) < 3.0 * combined

    def test_grid_refinement_consistency(self):
        from bridgeint.estimators import EstimatorConfig, mc_moment

        n = 20_000
        spec = dict(potential=BALL, x=np.zeros(3), y=np.zeros(3), t=8.0, seed=55)
        m_h = mc_moment("bridge", 1, n, EstimatorConfig(h_fine=0.02, **spec))
        m_h2 = mc_moment("bridge", 1, n, EstimatorConfig(h_fine=0.01, stream_channel=1, **spec))
        combined = math.hypot(m_h.std_error, m_h2.std_error)
        # 3 sigma plus a discretization allowance that shrinks with h
        assert abs(m_h.mean - m_h2.mean) < 3.0 * combined + 0.02


class _Spy:
    """A potential that keeps every point the engine evaluates it at.

    It is not radial to the engine, which would otherwise read a radial
    potential's phase-2 values from its distances, past ``__call__``.
    """

    is_radial = False

    def __init__(self, v):
        self.v, self.dim = v, v.dim
        self.center, self.support_radius = v.center, v.support_radius
        self.points = []

    def __call__(self, z):
        self.points.append(z.copy())
        return self.v(z)

    def seen(self):
        return {tuple(p) for p in np.concatenate(self.points)}


class TestNodeSkipping:
    """The two-phase engine: the cohort walks every node, far paths jump."""

    def test_cohort_reproduces_the_node_by_node_kernel(self):
        # the cohort is checked (at 16 nodes of the bridge, 3 of the free
        # leg), but no path comes near leaving it: recorded and terminal
        # positions are those of the node-by-node kernel bit for bit, and the
        # values its trapezoid sums
        vals, rec = bridge_integral_batch([0.1, 0.0, 0.0], [-0.2, 0.1, 0.0],
                                          TimeGrid.uniform(0.5, 0.002), STEP,
                                          stream(11, 0), 3, record_idx=[125])
        assert vals.tolist() == [0.6030000000000001, 0.5890000000000001, 0.7100000000000003]
        assert rec[0].tolist() == [
            [0.3549998827999907, -0.0776025981674049, 0.191804011787754],
            [-0.3966646470520551, -0.5329400882541173, 0.1324128839903751],
            [-0.5548021979394857, 0.028247829049624577, -0.3478498210743376]]
        vals, term = free_integral_batch([0.2, 0.0, 0.0], TimeGrid.uniform(0.3, 0.002), STEP,
                                         stream(12, 0), 3)
        assert vals.tolist() == [0.3255000000000001, 0.32750000000000024, 0.35400000000000015]
        assert term.tolist() == [
            [-0.2338636348686059, -0.651350399439261, 0.1402309910785362],
            [0.8502207592031398, 0.2405233716963241, -0.3783821720927484],
            [0.041936032658584664, 0.40942216533089754, 0.009424150287354549]]

    def test_phase_two_recorded_values(self):
        # bridges over t = 200 that finish in phase 2 (the per-path clocks),
        # on a ball, a two-band step and a table, and a free leg to 400: the
        # values recorded before phase 2 read each distance once per step
        grid = TimeGrid.refined(200.0, 0.02)
        table = Potential.tabulated(3, [-0.8] * 3, 0.4,
                                    (np.arange(64).reshape(4, 4, 4) % 5) / 4.0)
        step = Potential.radial_step(3, [0.6, 1.2], [1.2, 0.4])
        recorded = {
            "ball": ([1.8976029438621864, 1.5979814264103003, 0.5193439635833302],
                     129.90982743173822),
            "step": ([0.623212756300008, 0.6951219204884721, 1.5820016121461904],
                     109.24475401045348),
            "table": ([0.22471613808895352, 0.4694070440080188, 0.913845628228377],
                      59.44432574931775),
        }
        for name, v in (("ball", BALL), ("step", step), ("table", table)):
            vals, _ = bridge_integral_batch(np.zeros(3), np.zeros(3), grid, v,
                                            stream(5, 0), 64)
            head, total = recorded[name]
            assert vals[:3].tolist() == pytest.approx(head, rel=1e-13)
            assert float(vals.sum()) == pytest.approx(total, rel=1e-13)
        free_grid = TimeGrid.refined(400.0, 0.02, both_ends=False)
        vals, term = free_integral_batch(np.zeros(3), free_grid, step, stream(6, 1), 64)
        assert vals[:3].tolist() == pytest.approx([0.444, 0.788, 0.836], rel=1e-13)
        assert float(vals.sum()) == pytest.approx(57.328, rel=1e-13)
        assert float(term.sum()) == pytest.approx(-170.17536743391307, rel=1e-13)

    @pytest.mark.parametrize("x, y", [
        ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]),      # paths leave the cohort as they go
        ([12.0, 0.0, 0.0], [12.0, 0.0, 0.0]),    # every path jumps from the start
    ], ids=["mixed", "far"])
    def test_recorded_nodes_are_visited(self, x, y):
        # a path at a recorded node below the horizon evaluates v there in
        # its next step, so every recorded position is among the evaluated
        # points; the horizon is pinned to y
        grid = TimeGrid.refined(10.0, h_fine=0.004)
        idx = [int(np.argmin(np.abs(grid.nodes - s))) for s in (1.0, 5.0, 9.0)]
        spy = _Spy(ZERO)
        _, rec = bridge_integral_batch(x, y, grid, spy, stream(5, 0), 2000,
                                       record_idx=idx + [grid.nodes.size - 1])
        steps = sum(len(p) for p in spy.points)
        assert steps < 2000 * (grid.nodes.size - 1)  # some nodes were skipped
        seen = spy.seen()
        for k in range(len(idx)):
            assert all(tuple(p) in seen for p in rec[k])
        assert np.all(rec[-1] == y)

    @pytest.mark.parametrize("x, y", [
        ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([12.0, 0.0, 0.0], [12.0, 0.0, 0.0]),
    ], ids=["mixed", "far"])
    def test_marginals_with_skipping(self, x, y):
        # criterion 2's check on paths that skip nodes
        n, t = 20_000, 10.0
        x, y = np.asarray(x), np.asarray(y)
        grid = TimeGrid.refined(t, h_fine=0.004)
        idx = [int(np.argmin(np.abs(grid.nodes - s))) for s in (1.0, 5.0, 9.0)]
        _, rec = bridge_integral_batch(x, y, grid, ZERO, stream(2024, 0), n, record_idx=idx)
        for j, i in enumerate(idx):
            mean, var = bridge_marginal(x, y, t, grid.nodes[i])
            z_mean = np.abs(rec[j].mean(axis=0) - mean) / math.sqrt(var / n)
            z_var = np.abs(rec[j].var(axis=0, ddof=1) - var) / (var * math.sqrt(2.0 / (n - 1)))
            assert z_mean.max() < 4.0 and z_var.max() < 4.0

    @pytest.mark.parametrize("start, R, horizon, h", [
        (2.5, 2.0, 16.0, 0.01),    # some paths leave the cohort
        (10.0, 4.0, 25.0, 0.005),  # every path jumps from the start
    ], ids=["mixed", "far"])
    def test_free_terminals_in_path_order(self, start, R, horizon, h):
        # paths finish in another order than they were drawn in; a path
        # ending deep inside the ball was inside at its last left node, so
        # its integral is positive in the same row
        n = 2000
        x = np.array([start, 0.0, 0.0])
        grid = TimeGrid.uniform(horizon, h)
        spy = _Spy(Potential.ball_indicator(3, R))
        vals, term = free_integral_batch(x, grid, spy, stream(8, 0), n)
        assert sum(len(p) for p in spy.points) < n * (grid.nodes.size - 1)
        deep = np.linalg.norm(term, axis=1) < R - 6.0 * math.sqrt(h)
        assert deep.sum() >= 10 and (vals == 0.0).sum() >= 100
        assert np.all(vals[deep] > 0.0)
        se_mean = math.sqrt(horizon / n)
        assert np.all(np.abs(term.mean(axis=0) - x) < 4.0 * se_mean)
        se_var = horizon * math.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(term.var(axis=0, ddof=1) - horizon) < 4.0 * se_var)

    def test_long_horizon_first_moments(self):
        # k = 1 against the oracles: a bridge at t = 1000 and a free leg to
        # 1600 from the centre of the unit ball, within 3 SE plus the tolerance
        qcfg = QuadConfig()
        n = 4096
        cases = [
            ("bridge", TimeGrid.refined(1000.0, h_fine=0.004),
             moment_bridge(np.zeros(3), np.zeros(3), 1000.0, BALL, 1)),
            ("free", TimeGrid.refined(1600.0, h_fine=0.004, both_ends=False),
             moment_free(np.zeros(3), 1600.0, BALL, 1)),
        ]
        for kind, grid, target in cases:
            if kind == "bridge":
                vals, _ = bridge_integral_batch(np.zeros(3), np.zeros(3), grid, BALL,
                                                stream(61, 0), n)
            else:
                vals, _ = free_integral_batch(np.zeros(3), grid, BALL, stream(61, 1), n)
            se = vals.std(ddof=1) / math.sqrt(n)
            band = 3.0 * se + qcfg.tolerance(1, BALL) * abs(target)
            assert abs(vals.mean() - target) < band, (kind, vals.mean(), target, se)


def _same_state(a, b) -> bool:
    """Whether two ``bit_generator.state`` dicts are equal, arrays included."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


class _ThirdDrawFails(np.random.Generator):
    """A generator whose third ``standard_normal`` call raises."""

    calls = 0

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        if self.calls == 3:
            raise RuntimeError("third draw failed")
        return super().standard_normal(*args, **kwargs)


class _Raises:
    """A potential that raises on its ``after``-th evaluation."""

    is_radial = False

    def __init__(self, v, after):
        self.v, self.dim, self.after = v, v.dim, after
        self.center, self.support_radius = v.center, v.support_radius

    def __call__(self, z):
        self.after -= 1
        if self.after == 0:
            raise FloatingPointError("potential failed")
        return self.v(z)


class TestDrawAhead:
    """Cohort normals drawn on a helper thread are the inline draws, bit for bit."""

    @pytest.fixture
    def closes(self, monkeypatch):
        """(draws served from the current chunk, its size) at each supply's close."""
        seen = []

        class Watched(path_sim._Normals):
            def close(self):
                seen.append((self._used, self._block.size))
                super().close()

        monkeypatch.setattr(path_sim, "_Normals", Watched)
        return seen

    @pytest.mark.parametrize("chunk", [97, path_sim._CHUNK_DRAWS], ids=["chunk97", "default_chunk"])
    @pytest.mark.parametrize("kind, n", [("bridge", 300), ("bridge", 1), ("free", 300),
                                         ("free", 1)])
    def test_matches_inline_draws(self, monkeypatch, closes, kind, n, chunk):
        # with 97-draw chunks a take of 3 n normals spans chunks; the 300-path
        # runs hand their cohort to phase 2 partway through a chunk
        monkeypatch.setattr(path_sim, "_CHUNK_DRAWS", chunk)
        if kind == "bridge":
            grid = TimeGrid.refined(10.0, h_fine=0.004)
            idx = [0, 40] + [int(np.argmin(np.abs(grid.nodes - s))) for s in (1.0, 5.0)]
            idx.append(grid.nodes.size - 1)

            def run(draw_ahead):
                rng = stream(3, 0)
                spy = _Spy(STEP)
                vals, rec = bridge_integral_batch([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], grid, spy,
                                                  rng, n, record_idx=idx,
                                                  draw_ahead=draw_ahead)
                return vals, rec, rng.bit_generator.state, spy.points
        else:
            grid = TimeGrid.uniform(16.0, 0.01)

            def run(draw_ahead):
                rng = stream(3, 1)
                spy = _Spy(Potential.ball_indicator(3, 2.0))
                vals, term = free_integral_batch([2.5, 0.0, 0.0], grid, spy, rng, n,
                                                 draw_ahead=draw_ahead)
                return vals, term, rng.bit_generator.state, spy.points

        inline, ahead = run(False), run(True)
        assert np.array_equal(inline[0], ahead[0])
        assert np.array_equal(inline[1], ahead[1])
        assert _same_state(inline[2], ahead[2])
        assert len(closes) == 1
        if n > 1:
            assert sum(len(p) for p in ahead[3]) < n * (grid.nodes.size - 1)  # phase 2 ran
            used, size = closes[0]
            assert 0 < used < size

    def test_take_spans_chunks(self):
        # takes across one, two and three chunks, and one ending on a chunk's end
        inline, rng = stream(21, 4), stream(21, 4)
        supply = path_sim._Normals(rng, chunk=10)
        try:
            for shape in [(4, 3), (2,), (25,), (1, 3), (3,), (2, 2)]:
                assert np.array_equal(supply.take(shape), inline.standard_normal(shape))
        finally:
            supply.close()
        assert _same_state(rng.bit_generator.state, inline.bit_generator.state)

    def test_no_thread_outlives_the_call(self):
        threads = threading.active_count()
        bridge_integral_batch(np.zeros(3), np.zeros(3), TimeGrid.refined(10.0, 0.01), BALL,
                              stream(4, 0), 64, draw_ahead=True)
        free_integral_batch(np.zeros(3), TimeGrid.uniform(2.0, 0.01), BALL, stream(4, 1), 64,
                            draw_ahead=True)
        assert threading.active_count() == threads

    def test_potential_error_in_the_cohort(self):
        # the helper is joined and the generator left where inline draws leave it
        grid = TimeGrid.uniform(2.0, 0.01)
        threads = threading.active_count()
        states = []
        for draw_ahead in (False, True):
            rng = stream(4, 2)
            with pytest.raises(FloatingPointError, match="potential failed"):
                free_integral_batch(np.zeros(3), grid, _Raises(BALL, 50), rng, 64,
                                    draw_ahead=draw_ahead)
            states.append(rng.bit_generator.state)
            assert threading.active_count() == threads
        assert _same_state(*states)

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        # the helper's third chunk fails; the cohort needs more than two
        monkeypatch.setattr(path_sim, "_CHUNK_DRAWS", 100)
        threads = threading.active_count()
        raised = []

        def run():
            rng = _ThirdDrawFails(stream(4, 3).bit_generator)
            try:
                free_integral_batch(np.zeros(3), TimeGrid.uniform(2.0, 0.01), BALL, rng, 8,
                                    draw_ahead=True)
            except RuntimeError as exc:
                raised.append(exc)

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert [str(exc) for exc in raised] == ["third draw failed"]
        assert threading.active_count() == threads


def _grids():
    """Grids mixing fine and coarse steps, as the refined grids do."""
    steps = st.lists(st.sampled_from([0.001, 0.004, 0.05, 1.0]), min_size=2, max_size=60)
    return steps.map(lambda h: np.concatenate(([0.0], np.cumsum(h))))


class TestStepPlan:
    """No step longer than one node or one finest step starts within reach of the ball."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(nodes=_grids(), data=st.data())
    def test_no_jump_starts_near_the_support(self, nodes, data):
        last = nodes.size - 1
        m = 12
        radius = data.draw(st.floats(0.1, 3.0))
        center = np.array(data.draw(st.lists(st.floats(-5, 5), min_size=3, max_size=3)))
        v = Potential.ball_indicator(3, radius, center=center)
        node = np.array(data.draw(st.lists(st.integers(0, last - 1), min_size=m, max_size=m)))
        frac = np.array(data.draw(st.lists(st.floats(0.0, 0.9), min_size=m, max_size=m)))
        s = nodes[node] + frac * (nodes[node + 1] - nodes[node])
        z = np.array(data.draw(st.lists(st.lists(st.floats(-40, 40), min_size=3, max_size=3),
                                        min_size=m, max_size=m)))
        y_off = data.draw(st.one_of(st.none(), st.floats(0.0, 20.0)))
        recs = sorted(set(data.draw(st.lists(st.integers(1, last), max_size=4))))
        stops = np.array(recs + [last])
        fine = float(np.diff(nodes).min())

        dist = np.linalg.norm(z - center, axis=1)
        to, s_to = _plan_steps(nodes, node, s, dist, radius, y_off, fine, stops,
                               np.diff(nodes) > fine)

        t = nodes[-1]
        gap = np.maximum(np.linalg.norm(z - center, axis=1) - radius, 0.0)
        speed = 0.0 if y_off is None else (np.linalg.norm(z - center, axis=1) + y_off) / (t - s)
        next_stop = stops[np.searchsorted(stops, node, side="right")]
        span = s_to - s
        on_grid = to > node
        assert np.all(span > 0.0)
        assert np.all(s_to <= nodes[next_stop])
        assert np.all(s_to[on_grid] == nodes[to[on_grid]])
        assert np.all((to == node) | (to >= node + 1))
        assert np.all(s_to[~on_grid] < nodes[node[~on_grid] + 1])
        forced = np.where(on_grid, to == node + 1, span <= fine * (1.0 + 1e-9))
        margin = _KAPPA * np.sqrt(span) + speed * span
        assert np.all(forced | (margin <= gap * (1.0 + 1e-9) + 1e-12))
