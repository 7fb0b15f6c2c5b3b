"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Seeds are pinned; every run is bitwise reproducible.  Tolerances
are stated inline next to each assertion.
"""

import csv
import json
import math

import numpy as np
import pytest

from bridgeint.cli import EXIT_OK, main
from bridgeint.convergence import (
    EndpointRule,
    SweepPlan,
    density_ratio_sweep,
    run_theorem1,
    run_theorem2,
)
from bridgeint.estimators import EstimatorConfig, mc_moment
from bridgeint.gaussian import TimePoints, bridge_marginal, density_ratio, jensen_lower_bound
from bridgeint.path_sim import TimeGrid, bridge_integral_batch, stream
from bridgeint.potentials import Potential
from bridgeint.quadrature import (
    QuadConfig,
    horizon_moment_gap,
    moment_bridge,
    moment_free,
)

BALL = Potential.ball_indicator(3, 1.0)
STEP = Potential.radial_step(3, [0.6, 1.2], [1.2, 0.4])
ZERO = Potential.ball_indicator(3, 1.0, height=0.0)
QCFG = QuadConfig()


def report(name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


class TestCriterion01GreensFunctionFlagship:
    def test_expected_occupation_of_unit_ball(self):
        # oracle: radial quadrature of the Green kernel over the ball
        quad = moment_free([0, 0, 0], math.inf, BALL, 1)
        quad_ok = abs(quad - 1.0) < 1e-3

        # the default free-leg grid: fine steps of 0.004 up to s = 10, then 1
        cfg = EstimatorConfig(potential=BALL, x=np.zeros(3), free_horizon=100.0,
                              h_fine=0.004, seed=303, workers=2)
        est = mc_moment("free", 1, 100_000, cfg)
        mc_ok = abs(est.mean - quad) < 3.0 * est.std_error
        report("greens_function_flagship", quad_ok and mc_ok,
               f"quad={quad:.6f}, mc={est.mean:.5f} +/- {est.std_error:.5f}")


class TestCriterion02BridgeLaw:
    def test_marginals_at_five_interior_times(self):
        n = 100_000
        t = 10.0
        x, y = np.zeros(3), np.array([1.0, 0.0, 0.0])
        grid = TimeGrid.refined(t)
        idx = [int(np.argmin(np.abs(grid.nodes - s))) for s in (1.0, 3.0, 5.0, 7.0, 9.0)]
        _, rec = bridge_integral_batch(x, y, grid, ZERO, stream(2024, 0), n,
                                       record_idx=idx)
        worst = 0.0
        for j, i in enumerate(idx):
            s = grid.nodes[i]
            mean, var = bridge_marginal(x, y, t, s)
            z_mean = np.abs(rec[j].mean(axis=0) - mean) / math.sqrt(var / n)
            z_var = np.abs(rec[j].var(axis=0, ddof=1) - var) / (var * math.sqrt(2.0 / (n - 1)))
            worst = max(worst, float(z_mean.max()), float(z_var.max()))
        report("bridge_law_marginals", worst < 4.0, f"worst |z| = {worst:.2f} (< 4)")


class TestCriterion03OracleAgreement:
    def test_six_configuration_matrix(self):
        settings = [
            (np.zeros(3), np.zeros(3), 6.0),
            (np.zeros(3), np.array([1.5, 0.0, 0.0]), 8.0),
            (np.array([-1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]), 12.0),
        ]
        worst = 0.0
        ok = True
        for vi, v in enumerate((BALL, STEP)):
            for si, (x, y, t) in enumerate(settings):
                for k in (1, 2):
                    q = moment_bridge(x, y, t, v, k)
                    est = mc_moment(
                        "bridge", k, 25_000,
                        EstimatorConfig(potential=v, x=x, y=y, t=t, h_fine=0.004,
                                        seed=909, stream_channel=vi * 10 + si,
                                        workers=2))
                    band = 3.0 * (est.std_error + QCFG.tolerance(k, v, bridge=True) * abs(q))
                    ratio = abs(est.mean - q) / band
                    worst = max(worst, ratio)
                    ok = ok and (abs(est.mean - q) < band)
        report("oracle_agreement_matrix", ok, f"worst gap/band = {worst:.2f} (< 1)")


class TestCriterion04TwoSidedLimit:
    def test_flagship_sweep(self):
        plan = SweepPlan(theorem="T1", horizons=(10.0, 100.0, 1000.0),
                         x=np.zeros(3), y=np.zeros(3),
                         budgets=(6_000, 30_000, 30_000), target_budget=60_000,
                         k_list=(1, 2), seed=2025, h_fine=0.004,
                         target_free_horizon=1600.0, workers=2)
        rep = run_theorem1(plan, BALL)
        k1_rows = sorted((r for r in rep.rows if r.statistic == "bridge_moment"
                          and r.k_or_alpha == "1"), key=lambda r: r.t)
        gaps = [r.gap for r in k1_rows]
        shrinking = gaps[0] > gaps[1] > gaps[2]
        final = k1_rows[-1]
        final_ok = final.gap < 3.0 * math.hypot(final.std_error, final.target_error)
        mgf_rows = [r for r in rep.rows if r.statistic == "bridge_mgf"
                    and r.t == 1000.0]
        resid_ok = all(r.gap < 3.0 * math.hypot(r.std_error, r.target_error)
                       for r in mgf_rows)
        report("two_sided_limit_flagship",
               rep.passed and shrinking and final_ok and resid_ok,
               f"k1 gaps {gaps[0]:.3f} > {gaps[1]:.3f} > {gaps[2]:.3f}; "
               f"mgf residuals OK at t=1e3")


class TestCriterion05EscapingEndpoint:
    @pytest.mark.parametrize("rule,budget", [
        (EndpointRule("sqrt_t", 1.0), 4_000),
        (EndpointRule("fourth_root", 1.0), 1_000),
    ])
    def test_one_sided_limit(self, rule, budget):
        theorem = "T2b" if rule.kind == "sqrt_t" else "T2a"
        plan = SweepPlan(theorem=theorem, horizons=(100.0, 1000.0, 10000.0),
                         x=np.zeros(3), endpoint_rule=rule, budgets=budget,
                         target_budget=8_000, k_list=(1,), alphas=(0.5,),
                         seed=77, h_fine=0.02)
        rep = run_theorem2(plan, BALL)
        rows = sorted((r for r in rep.rows if r.statistic == "bridge_moment"),
                      key=lambda r: r.t)
        final = rows[-1]
        ok = final.gap < 3.0 * math.hypot(final.std_error, final.target_error)
        report(f"escaping_endpoint_{rule.kind}", ok,
               f"final gap {final.gap:.4f} < 3 sigma = "
               f"{3.0 * math.hypot(final.std_error, final.target_error):.4f}")


class TestCriterion06ConvexityBound:
    def test_ten_thousand_random_configurations(self):
        rng = np.random.default_rng(606)
        checked = 0
        ok = True
        while checked < 10_000:
            d = int(rng.integers(3, 6))
            k = int(rng.integers(1, 7))
            t = float(rng.uniform(0.1, 50.0))
            s = np.sort(rng.uniform(0.0, t, size=k))
            if s[0] <= 0.0 or s[-1] >= t or np.any(np.diff(s) <= 0.0):
                continue
            total, bound = jensen_lower_bound(TimePoints(tuple(s), t), d)
            ok = ok and (total >= bound - 1e-12)
            checked += 1
        # equality at uniform spacing
        eq_ok = True
        for k, d in ((1, 3), (4, 5)):
            t = 2.0
            s = tuple(t * (j + 1) / (k + 1) for j in range(k))
            total, bound = jensen_lower_bound(TimePoints(s, t), d)
            eq_ok = eq_ok and abs(total - bound) <= 1e-12
        report("time_gap_convexity_bound", ok and eq_ok,
               "10000 random configurations, equality at uniform spacing")


class TestCriterion07DensityRatioMechanism:
    def test_sweep_decreases(self):
        rep = density_ratio_sweep(np.zeros(3), np.array([1.0, 0.0, 0.0]),
                                  [100.0, 1000.0, 10000.0], BALL)
        devs = [r.value for r in rep.rows if r.statistic == "density_ratio_max_dev"]
        decreasing = devs[0] > devs[1] > devs[2]
        q0 = density_ratio(np.zeros(3), np.array([1.0, 0.0, 0.0]),
                           TimePoints((), 100.0), np.empty((0, 3)), 0)
        report("density_ratio_mechanism", decreasing and q0 == 1.0,
               f"max|Q-1|: {devs[0]:.3f} > {devs[1]:.3f} > {devs[2]:.3f}; k=0 exact")


class TestCriterion08HorizonSplitDiagnostic:
    def test_sqrt_window_dominates(self):
        t = 1e4
        d_early = horizon_moment_gap([0, 0, 0], [0, 0, 0], t, 1.0, BALL, 1)
        d_split = horizon_moment_gap([0, 0, 0], [0, 0, 0], t, math.sqrt(t), BALL, 1)
        ratio = d_split / d_early
        report("horizon_split_diagnostic", ratio < 0.1,
               f"D(sqrt t)/D(1) = {ratio:.4f} (< 0.1)")


class TestCriterion09BoundsCli:
    def _run_bounds(self, tmp_path, name, potential):
        cfg = {"dimension": 3, "potential": potential}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / name
        assert main(["bounds", "--config", str(path), "--out", str(out)]) == EXIT_OK
        return json.loads((out / "bounds_summary.json").read_text())

    def test_linearity_and_scaling(self, tmp_path):
        base = {"kind": "ball_indicator", "radius": 1.0, "height": 1.0}
        k1 = self._run_bounds(tmp_path, "unit", base)["k1"]
        doubled = self._run_bounds(
            tmp_path, "doubled", {**base, "height": 2.0})["k1"]
        lin_ok = abs(doubled - 2.0 * k1) <= 1e-6 * abs(2.0 * k1)
        scale_ok = True
        for lam in (0.5, 2.0):
            scaled = self._run_bounds(
                tmp_path, f"lam{lam}", {**base, "radius": lam})["k1"]
            scale_ok = scale_ok and abs(scaled - lam**2 * k1) <= 1e-6 * abs(lam**2 * k1)
        report("occupation_bound_cli", lin_ok and scale_ok,
               f"k1={k1:.6f}; height and dilation laws at 1e-6 relative")


class TestCriterion10Determinism:
    def test_byte_identical_across_workers(self, tmp_path):
        cfg = {
            "dimension": 3,
            "potential": {"kind": "ball_indicator", "radius": 1.0, "height": 1.0},
            "statistic_kind": "bridge",
            "x": [0.0, 0.0, 0.0],
            "y": [0.0, 0.0, 0.0],
            "t": 5.0,
            "n_paths": 20_000,
            "k_list": [1, 2],
            "seed": 4242,
            "grid": {"h_fine": 0.02},
        }
        path = tmp_path / "det.json"
        path.write_text(json.dumps(cfg))
        blobs = {}
        for tag, workers in (("w1a", 1), ("w1b", 1), ("w4", 4)):
            out = tmp_path / tag
            code = main(["moments", "--config", str(path), "--out", str(out),
                         "--workers", str(workers)])
            assert code == EXIT_OK
            blobs[tag] = ((out / "moments.csv").read_bytes(),
                          (out / "moments_summary.json").read_bytes())
        rerun_ok = blobs["w1a"] == blobs["w1b"]
        workers_ok = blobs["w1a"] == blobs["w4"]
        report("determinism_across_workers", rerun_ok and workers_ok,
               "rerun and worker-count outputs byte-identical")
