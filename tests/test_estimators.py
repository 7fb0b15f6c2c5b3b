"""Monte Carlo estimator contracts: moments, mgf curve, survival, kernel value."""

import math
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
    reaction_probability,
)
from bridgeint.gaussian import transition_density
from bridgeint.potentials import Potential, k1_bound
from bridgeint.quadrature import QuadConfig, moment_bridge

BALL = Potential.ball_indicator(3, 1.0)
ZERO = Potential.ball_indicator(3, 1.0, height=0.0)
SIGNED = Potential.radial_step(3, [0.5, 1.0], [1.0, -0.5])


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
        q = moment_bridge(cfg.x, cfg.y, cfg.t, BALL, 1, QuadConfig())
        assert abs(est.mean - q) < 3.0 * est.std_error + 0.01

    def test_two_sided_binomial_identity(self):
        # E (A + B)^2 = 2 E A^2 + 2 (E A)^2 for iid legs
        n = 30_000
        shared = dict(potential=BALL, x=np.zeros(3), y=np.zeros(3),
                      free_horizon=60.0, h_fine=0.02, h_coarse=0.5,
                      tail_correction=False, seed=101)
        two = mc_moment("two_sided", 2, n, EstimatorConfig(**shared))
        leg1 = mc_moment("free", 1, n, EstimatorConfig(stream_channel=7, **shared))
        leg2 = mc_moment("free", 2, n, EstimatorConfig(stream_channel=8, **shared))
        lhs = two.mean
        rhs = 2.0 * leg2.mean + 2.0 * leg1.mean**2
        se = math.sqrt(two.std_error**2 + (2 * leg2.std_error)**2 +
                       (4 * leg1.mean * leg1.std_error)**2)
        assert abs(lhs - rhs) < 3.0 * se

    def test_two_sided_mean_reaches_two(self):
        # both legs from the ball center: corrected mean must sit at 2 E Y0 = 2
        cfg = EstimatorConfig(potential=BALL, x=np.zeros(3), y=np.zeros(3),
                              free_horizon=100.0, h_fine=0.005, h_coarse=0.2,
                              refine_window=20.0, seed=404, workers=2)
        est = mc_moment("two_sided", 1, 100_000, cfg)
        assert abs(est.mean - 2.0) < 3.0 * est.std_error

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

    def test_green_tails_skipped_without_tail_correction(self, monkeypatch):
        calls = []
        real = estimators._green_potential_vec

        def spy(v, points):
            calls.append(len(points))
            return real(v, points)

        monkeypatch.setattr(estimators, "_green_potential_vec", spy)
        cfg = EstimatorConfig(potential=BALL, x=np.zeros(3), free_horizon=4.0,
                              h_fine=0.05, seed=9, tail_correction=False)
        raw = mc_moment("free", 1, 10_000, cfg)
        assert calls == []
        corrected = mc_moment("free", 1, 10_000, replace(cfg, tail_correction=True))
        assert calls == [8192, 1808]
        assert corrected.mean > raw.mean


class TestMcMgf:
    def test_alpha_zero_exact(self):
        curve = mc_mgf("bridge", [0.0], 1_000, bridge_cfg())
        est = curve.estimates[0]
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_negative_alpha_bounded_for_nonneg_potential(self):
        cfg = bridge_cfg()
        values, _ = estimators._collect("bridge", 5_000, cfg)
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

    def test_zero_potential_curve(self):
        curve = mc_mgf("bridge", [-1.0, 0.0, 2.0], 100, bridge_cfg(potential=ZERO))
        assert all(e.mean == 1.0 and e.std_error == 0.0 for e in curve.estimates)


class TestReactionProbability:
    def test_zero_potential_survives(self):
        est = reaction_probability("bridge", 200, bridge_cfg(potential=ZERO))
        assert est.survival.mean == 1.0 and est.reaction.mean == 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            reaction_probability("bridge", 200, bridge_cfg(potential=SIGNED))

    def test_survival_in_unit_interval_pathwise(self):
        cfg = bridge_cfg(t=4.0)
        values, _ = estimators._collect("bridge", 5_000, cfg)
        w = np.exp(-values)
        assert np.all((w > 0.0) & (w <= 1.0))

    def test_pinned_path_killing_rate(self):
        # path pinned inside a huge support: survival is essentially e^{-K t}
        K, t = 4.0, 0.5
        wide = Potential.ball_indicator(3, 8.0, height=K)
        cfg = EstimatorConfig(potential=wide, x=np.zeros(3), y=np.zeros(3),
                              t=t, seed=6, h_fine=0.002)
        est = reaction_probability("bridge", 4_000, cfg)
        assert est.survival.mean == pytest.approx(math.exp(-K * t), abs=1e-3)
        harder = reaction_probability(
            "bridge", 2_000,
            EstimatorConfig(potential=wide.with_height_factor(10.0), x=np.zeros(3),
                            y=np.zeros(3), t=t, seed=6, h_fine=0.002))
        assert harder.survival.mean < 1e-6

    def test_reaction_complement(self):
        est = reaction_probability("bridge", 3_000, bridge_cfg())
        assert est.reaction.mean == pytest.approx(1.0 - est.survival.mean, rel=1e-12)
        assert est.reaction.std_error == est.survival.std_error

    def test_self_oracle_at_finer_resolution(self):
        # unit-rate ball, t=10: a 4x-finer grid with 10x the samples is the oracle
        shared = dict(potential=BALL, x=np.zeros(3), y=np.zeros(3), t=10.0, seed=61)
        coarse = reaction_probability(
            "bridge", 4_000, EstimatorConfig(h_fine=0.02, **shared))
        fine = reaction_probability(
            "bridge", 40_000, EstimatorConfig(h_fine=0.005, stream_channel=2, **shared))
        gap = abs(coarse.survival.mean - fine.survival.mean)
        combined = math.hypot(coarse.survival.std_error, fine.survival.std_error)
        assert gap < 3.0 * combined + 5e-3


class TestBlochGreen:
    def test_zero_potential_gives_heat_kernel(self):
        x = np.zeros(3)
        y = np.array([1.0, 0.5, 0.0])
        t = 2.0
        est = bloch_green(x, y, t, 500, bridge_cfg(potential=ZERO))
        assert est.mean == transition_density(t, y - x)
        assert est.std_error == 0.0

    def test_dominated_by_kernel(self):
        x = np.zeros(3)
        y = np.array([0.5, 0.0, 0.0])
        t = 3.0
        est = bloch_green(x, y, t, 5_000, bridge_cfg())
        assert est.mean <= transition_density(t, y - x)

    def test_short_time_expansion_band(self):
        # 1 - z <= e^{-z} <= 1 - z + z^2/2 pathwise, hence in expectation
        x = np.zeros(3)
        y = np.array([0.2, 0.0, 0.0])
        t = 0.4
        qcfg = QuadConfig()
        m1 = moment_bridge(x, y, t, BALL, 1, qcfg)
        m2 = moment_bridge(x, y, t, BALL, 2, qcfg)
        kernel = transition_density(t, y - x)
        est = bloch_green(x, y, t, 20_000,
                          EstimatorConfig(potential=BALL, x=x, y=y, t=t,
                                          seed=8, h_fine=0.001))
        lo = kernel * (1.0 - m1) - 3.0 * est.std_error - 2e-3
        hi = kernel * (1.0 - m1 + 0.5 * m2) + 3.0 * est.std_error + 2e-3
        assert lo <= est.mean <= hi
