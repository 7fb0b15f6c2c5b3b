"""Monte Carlo estimator contracts: moments, mgf curve, survival, kernel value."""

import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from bridgeint import estimators
from bridgeint.estimators import (
    EstimatorConfig,
    McEstimate,
    bloch_green,
    mc_mgf,
    mc_moment,
)
from bridgeint.gaussian import transition_density
from bridgeint.green import k1_bound
from bridgeint.potentials import Potential
from bridgeint.quadrature import QuadConfig, moment_bridge, moment_free, moment_two_sided

BALL = Potential.ball_indicator(3, 1.0)
ZERO = Potential.ball_indicator(3, 1.0, height=0.0)
SIGNED = Potential.radial_step(3, [0.5, 1.0], [1.0, -0.5])
TABLE = Potential.tabulated(3, [-0.8, -0.8, -0.8], 0.4,
                            (np.arange(64).reshape(4, 4, 4) % 5) / 4.0)


# a fixed random 6^3 table with both ends of every bridge inside it
NEAR_TABLE = Potential.tabulated(3, [-1.2, -1.2, -1.2], 0.4,
                                 np.random.default_rng(2004).uniform(0.0, 1.0, (6, 6, 6)))
NEAR_POINTS = [(np.array(x), np.array(y), t) for x, y, t in (
    ([0.3, -0.2, 0.1], [-0.4, 0.5, 0.0], 0.5),
    ([0.0, 0.6, -0.3], [0.2, -0.5, 0.4], 1.0),
    ([-0.7, 0.1, 0.2], [0.6, 0.0, -0.5], 2.0),
    ([0.5, 0.5, 0.5], [-0.5, -0.5, -0.5], 4.0),
)]


def bridge_cfg(**kw):
    base = dict(potential=BALL, x=np.zeros(3), y=np.zeros(3), t=6.0, seed=100)
    base.update(kw)
    return EstimatorConfig(**base)


class TestMcEstimate:
    def test_from_samples(self):
        est = McEstimate.from_samples(np.array([1.0, 2.0, 3.0, 4.0]))
        assert est.mean == 2.5 and est.n == 4
        assert est.std_error == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2.0)
        assert est.max_sample_share == pytest.approx(0.4)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            McEstimate.from_samples(np.array([1.0]))

    def test_share_bounds(self):
        with pytest.raises(ValueError):
            McEstimate(mean=0.0, std_error=0.0, n=5, max_sample_share=1.5)


class TestLawChecks:
    """Every sample kind gets the same checks of the law it samples."""

    def test_nan_free_start_rejected(self):
        cfg = EstimatorConfig(potential=BALL, x=[np.nan, 0, 0], free_horizon=4.0)
        with pytest.raises(ValueError, match="finite"):
            mc_moment("free", 1, 100, cfg)

    def test_infinite_bridge_horizon_rejected(self):
        with pytest.raises(ValueError, match="t must be positive and finite"):
            bridge_cfg(t=math.inf)

    def test_infinite_free_horizon_rejected(self):
        with pytest.raises(ValueError, match="free_horizon must be positive and finite"):
            EstimatorConfig(potential=BALL, x=np.zeros(3), free_horizon=math.inf)


class TestMcMoment:
    def test_zero_potential_shortcut(self):
        est = mc_moment("bridge", 1, 500, bridge_cfg(potential=ZERO))
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_bridge_against_quadrature(self):
        cfg = bridge_cfg(h_fine=0.004)
        est = mc_moment("bridge", 1, 20_000, cfg)
        q = moment_bridge(cfg.x, cfg.y, cfg.t, BALL, 1)
        assert abs(est.mean - q) < 3.0 * est.std_error + 0.01

    def test_escaping_endpoint_mean_on_the_default_grid(self):
        # 0 -> 10 e1 at t = 100: the fine window ends at s = 10, where the
        # step grows to 1, with the occupation density still high.  A
        # left-node cohort read z = 4.1 here (1.00483 +- 0.00272), the
        # trapezoid cohort z = 0.7
        y = np.array([10.0, 0.0, 0.0])
        cfg = EstimatorConfig(potential=BALL, x=np.zeros(3), y=y, t=100.0, h_fine=0.01,
                              seed=77, workers=2)
        est = mc_moment("bridge", 1, 100_000, cfg)
        qcfg = QuadConfig()
        q = moment_bridge(cfg.x, y, 100.0, BALL, 1)
        assert abs(est.mean - q) < 3.0 * est.std_error + qcfg.tolerance(1, BALL) * abs(q)

    def test_two_sided_binomial_identity(self):
        # E (A + B)^2 = 2 E A^2 + 2 (E A)^2 for iid legs
        n = 30_000
        shared = dict(potential=BALL, x=np.zeros(3), y=np.zeros(3),
                      free_horizon=60.0, h_fine=0.02, seed=101)
        two = mc_moment("two_sided", 2, n, EstimatorConfig(**shared))
        leg1 = mc_moment("free", 1, n, EstimatorConfig(stream_channel=7, **shared))
        leg2 = mc_moment("free", 2, n, EstimatorConfig(stream_channel=8, **shared))
        lhs = two.mean
        rhs = 2.0 * leg2.mean + 2.0 * leg1.mean**2
        se = math.sqrt(two.std_error**2 + (2 * leg2.std_error)**2 +
                       (4 * leg1.mean * leg1.std_error)**2)
        assert abs(lhs - rhs) < 3.0 * se

    def test_two_sided_mean_matches_the_horizon_oracle(self):
        # both legs from the ball center, each the raw integral to T = 100:
        # the mean sits at 2 E Y0(100), about 0.1 below 2 E Y0 = 2
        cfg = EstimatorConfig(potential=BALL, x=np.zeros(3), y=np.zeros(3),
                              free_horizon=100.0, h_fine=0.005, seed=404, workers=2)
        est = mc_moment("two_sided", 1, 100_000, cfg)
        exact = moment_two_sided(cfg.x, cfg.y, BALL, 1, horizon=100.0)
        assert exact == 2.0 * moment_free(cfg.x, 100.0, BALL, 1)
        assert abs(est.mean - exact) < 3.0 * est.std_error

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            mc_moment("bridge", 0, 100, bridge_cfg())
        with pytest.raises(ValueError):
            mc_moment("bridge", 1, 1, bridge_cfg())
        with pytest.raises(ValueError):
            mc_moment("sideways", 1, 100, bridge_cfg())

    def test_seed_determinism(self):
        a = mc_moment("bridge", 1, 5_000, bridge_cfg())
        b = mc_moment("bridge", 1, 5_000, bridge_cfg())
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_worker_independence(self):
        a = mc_moment("bridge", 1, 20_000, bridge_cfg(workers=1))
        b = mc_moment("bridge", 1, 20_000, bridge_cfg(workers=2))
        assert a.mean == b.mean and a.std_error == b.std_error

    @pytest.mark.parametrize("cpus, expected", [
        # (workers, pool sizes, draw-ahead)
        (64, (5000, [3], True)), (2, (5000, [2], False)), (1, (5000, [], False)),
        pytest.param(2, (1, [], True), id="1_worker_on_2_cpus"),
        pytest.param(2, (2, [2], False), id="2_workers_on_2_cpus"),
        pytest.param(4, (2, [2], True), id="2_workers_on_4_cpus"),
    ])
    def test_pool_capped_at_batches_and_cpus(self, monkeypatch, cpus, expected):
        # a fork pool starts all max_workers processes at its first task, so
        # it must ask for no more than the workers, batches and CPUs; the
        # fake pool records its size and the threads alive when it would
        # fork, and starts no process.  Batches draw ahead only when every
        # helper thread has a CPU, and the samples are the inline ones.
        workers, pools, draw_ahead = expected
        sizes, forked_with, drew_ahead = [], [], []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *columns):
                forked_with.append(threading.active_count())
                return map(fn, *columns)

        def watched(*args, draw_ahead):
            drew_ahead.append(draw_ahead)
            return bridge_integral_batch(*args, draw_ahead=draw_ahead)

        bridge_integral_batch = estimators.bridge_integral_batch
        monkeypatch.setattr(estimators, "bridge_integral_batch", watched)
        monkeypatch.setattr(estimators, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(EstimatorConfig, "batch_size", 4)
        cfg = bridge_cfg(t=1.0, h_fine=0.1, workers=workers)
        threads = threading.active_count()
        batches = estimators._batch_plan(12, 4)
        inline = np.concatenate([estimators._run_batch("bridge", cfg, *b) for b in batches])
        ahead = np.concatenate([estimators._run_batch("bridge", cfg, *b, draw_ahead=True)
                                for b in batches])
        assert np.array_equal(ahead, inline)
        drew_ahead.clear()
        values = estimators._collect("bridge", 12, cfg)
        assert sizes == pools and forked_with == [threads] * len(pools)
        assert drew_ahead == [draw_ahead] * 3
        assert np.array_equal(values, inline)
        assert threading.active_count() == threads

    def test_free_mean_matches_the_horizon_oracle(self):
        # a free sample is the raw integral to its horizon, over two batches
        cfg = EstimatorConfig(potential=BALL, x=np.zeros(3), free_horizon=4.0,
                              h_fine=0.05, seed=9)
        values = estimators._collect("free", 10_000, cfg)
        assert values.shape == (10_000,)
        est = McEstimate.from_samples(values)
        assert abs(est.mean - moment_free(cfg.x, 4.0, BALL, 1)) < 3.0 * est.std_error


class TestMcMgf:
    def test_alpha_zero_exact(self):
        curve = mc_mgf("bridge", [0.0], 1_000, bridge_cfg())
        est = curve.estimates[0]
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_negative_alpha_bounded_for_nonneg_potential(self):
        cfg = bridge_cfg()
        values = estimators._collect("bridge", 5_000, cfg)
        w = np.exp(-0.7 * values)
        assert np.all(w <= 1.0) and np.all(w > 0.0)
        curve = mc_mgf("bridge", [-0.7], 5_000, cfg)
        assert 0.0 < curve.estimates[0].mean <= 1.0

    def test_monotone_in_alpha(self):
        curve = mc_mgf("bridge", [-0.5, -0.25, 0.0, 0.25, 0.5], 20_000, bridge_cfg())
        means = [e.mean for e in curve.estimates]
        ses = [e.std_error for e in curve.estimates]
        for i in range(len(means) - 1):
            slack = 3.0 * math.hypot(ses[i], ses[i + 1])
            assert means[i + 1] >= means[i] - slack

    def test_jensen_inequality(self):
        cfg = bridge_cfg()
        alpha = 0.5
        curve = mc_mgf("bridge", [alpha], 20_000, cfg)
        m1 = mc_moment("bridge", 1, 20_000, cfg)
        lhs = curve.estimates[0].mean
        rhs = math.exp(alpha * m1.mean)
        assert lhs >= rhs - 3.0 * curve.estimates[0].std_error

    def test_instability_flag_definition(self):
        curve = mc_mgf("free", [40.0], 800,
                       EstimatorConfig(potential=BALL, x=np.zeros(3), seed=3,
                                       free_horizon=50.0, h_fine=0.05))
        est = curve.estimates[0]
        assert curve.unstable[0] == (est.max_sample_share > 0.5)
        assert curve.unstable[0]

    def test_warning_sign_changing_beyond_alpha0(self):
        bounds = k1_bound(SIGNED)
        cfg = EstimatorConfig(potential=SIGNED, x=np.zeros(3), y=np.zeros(3),
                              t=3.0, seed=5)
        with pytest.warns(RuntimeWarning):
            mc_mgf("bridge", [1.5 * bounds.alpha0], 500, cfg)

    def test_every_alpha_flagged(self):
        # far past alpha1 = pi^2/8 a single path carries each estimate
        cfg = EstimatorConfig(potential=BALL, x=np.zeros(3), seed=3,
                              free_horizon=50.0, h_fine=0.05)
        curve = mc_mgf("free", [40.0, 60.0], 800, cfg)
        assert curve.unstable.all()

    def test_zero_potential_curve(self):
        curve = mc_mgf("bridge", [-1.0, 0.0, 2.0], 100, bridge_cfg(potential=ZERO))
        assert all(e.mean == 1.0 and e.std_error == 0.0 for e in curve.estimates)


class TestMgfControl:
    """The exact bridge moments as controls, and where the plain mean stays."""

    @pytest.mark.parametrize("values", [np.full(50, 0.3), np.array([0.1, 0.4]),
                                        np.array([0.1, 0.4, 0.2])],
                             ids=["constant", "two_samples", "three_samples"])
    def test_plain_estimate_kept(self, values):
        est = estimators._mgf_estimate(values, -1.0, (0.3, 1e-6, 0.1, 1e-6))
        assert est == McEstimate.from_samples(np.exp(-values))
        assert est.control is None

    def test_quadratic_fit_read_at_the_exact_moments(self):
        # the controlled mean is the least-squares parabola of f on Z,
        # read at (m1, m2): c0 + c1 m1 + c2 m2
        values = np.random.default_rng(3).gamma(2.0, 0.4, 500)
        m1, m2 = 0.8, 0.96
        for alpha in (-1.0, 0.4):
            f = np.exp(alpha * values)
            est = estimators._mgf_estimate(values, alpha, (m1, 1e-7, m2, 2e-7))
            c2, c1, c0 = np.polyfit(values, f, 2)
            assert est.mean == pytest.approx(c0 + c1 * m1 + c2 * m2, rel=1e-12)
            assert est.control.beta == pytest.approx(c1, rel=1e-9)
            assert est.control.beta2 == pytest.approx(c2, rel=1e-9)
            residual = f - np.polyval([c2, c1, c0], values)
            se = math.hypot(float(np.std(residual, ddof=3)) / math.sqrt(values.size),
                            c1 * 1e-7, c2 * 2e-7)
            assert est.std_error == pytest.approx(se, rel=1e-9)

    def test_refused_geometry_keeps_the_linear_control(self):
        # Kac's resolvent refuses ends 3 apart over t = 0.1 (its rounding
        # estimate is far above 1e-6), so Z alone is the control
        cfg = bridge_cfg(x=np.array([1.5, 0.0, 0.0]), y=np.array([-1.5, 0.0, 0.0]),
                         t=0.1, h_fine=0.002)
        with pytest.raises(ValueError):
            moment_bridge(cfg.x, cfg.y, cfg.t, BALL, 2)
        m1, m1_error, m2, m2_error = estimators._bridge_moments(cfg)
        assert m2 is None and m2_error is None
        est = mc_mgf("bridge", [-1.0], 2_000, cfg).estimates[0]
        values = estimators._collect("bridge", 2_000, cfg)
        assert est == estimators._mgf_estimate(values, -1.0, (m1, m1_error, None, None))
        control = est.control
        assert control.m2 is None and control.beta2 is None and control.gap2 is None
        dz, df = values - np.mean(values), np.exp(-values) - np.mean(np.exp(-values))
        assert control.beta == float(np.dot(df, dz) / np.dot(dz, dz))

    def test_byte_identical_across_workers(self):
        # the fit runs on the whole sample in batch order in the parent
        # process, so the pool size cannot change a bit of it
        cfg = bridge_cfg(t=2.0, h_fine=0.02)
        one, two = (mc_mgf("bridge", [-1.0, 0.5], 10_000, replace(cfg, workers=w))
                    for w in (1, 2))
        assert [e.as_dict() for e in one.estimates] == [e.as_dict() for e in two.estimates]
        assert one.unstable.tolist() == two.unstable.tolist()
        assert [e.control for e in one.estimates] == [e.control for e in two.estimates]
        assert one.estimates[0].control.m2 is not None

    def test_overflow_stays_flagged(self):
        # exp(100 Z) overflows on a height-10 ball; exp(-0.01 Z) is tame
        hot = Potential.ball_indicator(3, 1.0, height=10.0)
        with np.errstate(over="ignore", invalid="ignore"):
            curve = mc_mgf("bridge", [100.0, -0.01], 200, bridge_cfg(potential=hot, t=4.0))
        overflowed, survival = curve.estimates
        assert curve.unstable[0] and overflowed.mean == math.inf
        assert overflowed.control is None and overflowed.max_sample_share == 1.0
        assert not curve.unstable[1] and survival.control is not None

    def test_share_is_the_raw_sample_share(self):
        cfg = bridge_cfg(t=2.0, h_fine=0.02)
        curve = mc_mgf("bridge", [-0.5, 0.5], 2_000, cfg)
        values = estimators._collect("bridge", 2_000, cfg)
        for alpha, est in zip(curve.alphas, curve.estimates):
            raw = McEstimate.from_samples(np.exp(alpha * values))
            assert est.control is not None and est.mean != raw.mean
            assert est.max_sample_share == raw.max_sample_share

    def test_control_beats_plain_on_the_ball(self):
        # 20,000 bridges 0 -> 0 at t = 6: the control must not move the
        # estimate by more than 3 plain SEs, and must shrink the SE
        cfg = bridge_cfg()
        alphas = [-1.0, -0.3, 0.3]
        curve = mc_mgf("bridge", alphas, 20_000, cfg)
        values = estimators._collect("bridge", 20_000, cfg)
        for alpha, est in zip(alphas, curve.estimates):
            raw = McEstimate.from_samples(np.exp(alpha * values))
            assert abs(est.mean - raw.mean) <= 3.0 * raw.std_error
            assert est.std_error < raw.std_error
            assert est.control.m1 == moment_bridge(cfg.x, cfg.y, cfg.t, BALL, 1)

    def test_free_legs_keep_plain_estimate(self):
        cfg = EstimatorConfig(potential=BALL, x=np.zeros(3), free_horizon=20.0,
                              h_fine=0.05, seed=4)
        curve = mc_mgf("free", [-1.0], 500, cfg)
        values = estimators._collect("free", 500, cfg)
        assert curve.estimates[0] == McEstimate.from_samples(np.exp(-values))


class TestReactionProbability:
    """Survival probability E exp(-Z) of a killing rate v: the mgf at alpha = -1."""

    def test_survival_in_unit_interval_pathwise(self):
        cfg = bridge_cfg(t=4.0)
        values = estimators._collect("bridge", 5_000, cfg)
        w = np.exp(-values)
        assert np.all((w > 0.0) & (w <= 1.0))

    def test_pinned_path_killing_rate(self):
        # path pinned inside a huge support: survival is essentially e^{-K t}
        K, t = 4.0, 0.5
        wide = Potential.ball_indicator(3, 8.0, height=K)
        cfg = EstimatorConfig(potential=wide, x=np.zeros(3), y=np.zeros(3),
                              t=t, seed=6, h_fine=0.002)
        survival = mc_mgf("bridge", [-1.0], 4_000, cfg).estimates[0]
        assert survival.mean == pytest.approx(math.exp(-K * t), abs=1e-3)
        harder = mc_mgf(
            "bridge", [-1.0], 2_000,
            EstimatorConfig(potential=wide.with_height_factor(10.0), x=np.zeros(3),
                            y=np.zeros(3), t=t, seed=6, h_fine=0.002)).estimates[0]
        assert harder.mean < 1e-6

    def test_self_oracle_at_finer_resolution(self):
        # unit-rate ball, t=10: a 4x-finer grid with 10x the samples is the oracle
        shared = dict(potential=BALL, x=np.zeros(3), y=np.zeros(3), t=10.0, seed=61)
        coarse = mc_mgf(
            "bridge", [-1.0], 4_000, EstimatorConfig(h_fine=0.02, **shared)).estimates[0]
        fine = mc_mgf(
            "bridge", [-1.0], 40_000,
            EstimatorConfig(h_fine=0.005, stream_channel=2, **shared)).estimates[0]
        gap = abs(coarse.mean - fine.mean)
        combined = math.hypot(coarse.std_error, fine.std_error)
        assert gap < 3.0 * combined + 5e-3


class TestBlochGreen:
    def test_zero_potential_gives_heat_kernel(self):
        x = np.zeros(3)
        y = np.array([1.0, 0.5, 0.0])
        t = 2.0
        est = bloch_green(x, y, t, 500, bridge_cfg(potential=ZERO))
        assert est.mean == transition_density(t, y - x)
        assert est.std_error == 0.0
        assert est.control is None

    def test_dominated_by_kernel(self):
        x = np.zeros(3)
        y = np.array([0.5, 0.0, 0.0])
        t = 3.0
        est = bloch_green(x, y, t, 5_000, bridge_cfg())
        assert est.mean <= transition_density(t, y - x)

    @pytest.mark.parametrize("potential", [BALL, TABLE], ids=["ball", "tabulated"])
    def test_kernel_times_survival_sample(self, potential):
        # the kernel times the controlled survival estimate of the same draws,
        # bit for bit: f = e^{-Z} with the exact E Z and E Z^2 as a
        # quadratic control
        x = np.array([-0.3, 0.2, 0.0])
        y = np.array([0.4, 0.0, -0.1])
        t = 1.0
        n = 1_000
        cfg = EstimatorConfig(potential=potential, seed=12, h_fine=0.02)
        est = bloch_green(x, y, t, n, cfg)
        values = estimators._collect("bridge", n, replace(cfg, x=x, y=y, t=t))
        f = np.exp(-values)
        plain = McEstimate.from_samples(f)
        m1 = moment_bridge(x, y, t, potential, 1)
        m2 = moment_bridge(x, y, t, potential, 2)
        m1_error = QuadConfig().tolerance(1, potential) * abs(m1)
        m2_error = QuadConfig().tolerance(2, potential, bridge=True) * abs(m2)
        z_mean, q_mean = float(np.mean(values)), float(np.mean(values * values))
        design = np.column_stack([values - z_mean, values * values - q_mean])
        df = f - plain.mean
        (beta, beta2), *_ = np.linalg.lstsq(design, df, rcond=None)
        residual = float(np.std(df - design @ [beta, beta2], ddof=3)) / math.sqrt(n)
        kernel = transition_density(t, y - x)
        assert est.mean == kernel * (plain.mean - beta * (z_mean - m1) - beta2 * (q_mean - m2))
        assert est.std_error == kernel * math.hypot(residual, beta * m1_error,
                                                    beta2 * m2_error)
        assert est.max_sample_share == plain.max_sample_share
        assert est.control.beta == kernel * beta
        assert est.control.beta2 == kernel * beta2
        assert est.control.gap == z_mean - m1
        assert est.control.gap2 == q_mean - m2
        assert (est.control.m2, est.control.m2_error) == (m2, m2_error)
        # the controlled mean is the least-squares parabola of f on Z, read at (m1, m2)
        c2, c1, c0 = np.polyfit(values, f, 2)
        assert kernel * (c0 + c1 * m1 + c2 * m2) == pytest.approx(est.mean, rel=1e-12)

    @pytest.mark.parametrize("index", range(4))
    def test_control_beats_plain_on_a_tabulated_table(self, index):
        # both ends inside a fixed random 6^3 table: the controlled value
        # agrees with the plain mean of the same draws within 3 plain
        # standard errors, with the smaller standard error
        x, y, t = NEAR_POINTS[index]
        cfg = EstimatorConfig(potential=NEAR_TABLE, h_fine=0.0025, seed=7,
                              stream_channel=20 + index)
        est = bloch_green(x, y, t, 4_096, cfg)
        values = estimators._collect("bridge", 4_096, replace(cfg, x=x, y=y, t=t))
        kernel = transition_density(t, y - x)
        plain = McEstimate.from_samples(kernel * np.exp(-values))
        assert est.control is not None
        assert abs(est.mean - plain.mean) <= 3.0 * plain.std_error
        assert est.std_error < plain.std_error

    def test_short_time_expansion_band(self):
        # 1 - z <= e^{-z} <= 1 - z + z^2/2 pathwise, hence in expectation
        x = np.zeros(3)
        y = np.array([0.2, 0.0, 0.0])
        t = 0.4
        m1 = moment_bridge(x, y, t, BALL, 1)
        m2 = moment_bridge(x, y, t, BALL, 2)
        kernel = transition_density(t, y - x)
        est = bloch_green(x, y, t, 20_000,
                          EstimatorConfig(potential=BALL, x=x, y=y, t=t,
                                          seed=8, h_fine=0.001))
        lo = kernel * (1.0 - m1) - 3.0 * est.std_error - 2e-3
        hi = kernel * (1.0 - m1 + 0.5 * m2) + 3.0 * est.std_error + 2e-3
        assert lo <= est.mean <= hi
