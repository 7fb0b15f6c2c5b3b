"""Sweep harnesses: plan validation, report mechanics, small seeded runs."""

import csv
import math

import numpy as np
import pytest

from bridgeint import estimators
from bridgeint.convergence import (
    CSV_COLUMNS,
    ConvergenceReport,
    EndpointRule,
    ReportRow,
    SweepPlan,
    density_ratio_sweep,
    run_lemma4,
    run_theorem1,
    run_theorem2,
)
from bridgeint.green import CELL_MGF_TOLERANCE, MGF_TOLERANCE, mgf_one_sided
from bridgeint.potentials import Potential

BALL = Potential.ball_indicator(3, 1.0)
STEP = Potential.radial_step(3, [0.6, 1.2], [1.2, 0.4])
ZERO = Potential.ball_indicator(3, 1.0, height=0.0)
# a 2 x 2 x 2 table: a non-radial potential, whose mgf targets are Monte Carlo
TABLE = Potential.tabulated(3, [-0.5, -0.5, -0.5], 0.5,
                            [[[1.0, 0.5], [0.25, 0.75]], [[0.5, 1.0], [0.0, 0.5]]])


class TestEndpointRule:
    def test_fixed(self):
        # a fixed endpoint is the plan's y, not a rule
        with pytest.raises(ValueError):
            EndpointRule("fixed", 1.0)

    def test_sqrt_growth(self):
        rule = EndpointRule("sqrt_t", 2.0)
        y = rule.y_at(25.0, 3)
        assert np.allclose(y, [10.0, 0.0, 0.0])
        # |y(t)|^2 / t stays constant, bounded away from 0 and infinity
        assert float(y @ y) / 25.0 == pytest.approx(4.0)

    def test_fourth_root_growth(self):
        rule = EndpointRule("fourth_root", 1.0)
        ratios = [float(rule.y_at(t, 3) @ rule.y_at(t, 3)) / t for t in (1e2, 1e4, 1e6)]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_invalid(self):
        with pytest.raises(ValueError):
            EndpointRule("linear", 1.0)
        with pytest.raises(ValueError):
            EndpointRule("sqrt_t", 0.0)


class TestSweepPlanValidation:
    def test_horizons_increasing(self):
        with pytest.raises(ValueError):
            SweepPlan(theorem="T1", horizons=(10.0, 10.0), x=np.zeros(3), y=np.zeros(3))

    def test_theorem2_rule_mismatch(self):
        with pytest.raises(ValueError):
            SweepPlan(theorem="T2b", horizons=(10.0, 100.0), x=np.zeros(3),
                      endpoint_rule=EndpointRule("fourth_root", 1.0))
        with pytest.raises(ValueError):
            SweepPlan(theorem="T2a", horizons=(10.0, 100.0), x=np.zeros(3),
                      endpoint_rule=EndpointRule("sqrt_t", 1.0))

    def test_lemma4_needs_sequence(self):
        with pytest.raises(ValueError):
            SweepPlan(theorem="L4a", horizons=(10.0, 100.0), x=np.zeros(3))

    def test_escaping_branch_needs_growing_norms(self):
        with pytest.raises(ValueError):
            SweepPlan(theorem="L4b", horizons=(10.0, 100.0), x=np.zeros(3),
                      x_sequence=([5.0, 0, 0], [4.0, 0, 0]))

    def test_budget_lookup(self):
        plan = SweepPlan(theorem="T1", horizons=(1.0, 2.0, 4.0), x=np.zeros(3),
                         y=np.zeros(3), budgets=(100, 200, 300))
        assert plan.budget_for(2) == 300
        plan = SweepPlan(theorem="T1", horizons=(1.0, 2.0), x=np.zeros(3),
                         y=np.zeros(3), budgets=150)
        assert plan.budget_for(1) == 150

    def test_plan_theorem_mismatch_at_run(self):
        plan = SweepPlan(theorem="T1", horizons=(1.0, 2.0), x=np.zeros(3), y=np.zeros(3),
                         budgets=100)
        with pytest.raises(ValueError):
            run_theorem2(plan, BALL)
        with pytest.raises(ValueError):
            run_lemma4(plan, BALL)


class TestReportMechanics:
    def test_csv_round_trip(self, tmp_path):
        report = ConvergenceReport(
            rows=[ReportRow("stat", "1", 10.0, 1.5, 0.1, 2.0, 0.0, 0.5, ""),
                  ReportRow("stat", "1", 100.0, 1.9, 0.1, 2.0, 0.0, 0.1, "PASS")],
            verdicts={"stat/1": "PASS"})
        path = tmp_path / "rows.csv"
        report.write_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert rows[1][0] == "stat" and rows[2][-1] == "PASS"
        assert float(rows[2][3]) == 1.9

    def test_passed_property(self):
        rep = ConvergenceReport(verdicts={"a": "PASS", "b": "FAIL"})
        assert not rep.passed
        rep = ConvergenceReport(verdicts={"a": "PASS"})
        assert rep.passed


class TestTheorem1:
    def test_zero_potential_all_gaps_zero(self):
        plan = SweepPlan(theorem="T1", horizons=(5.0, 10.0), x=np.zeros(3),
                         y=np.zeros(3), budgets=200, k_list=(1, 2),
                         alphas=(0.0, 0.3), seed=1)
        rep = run_theorem1(plan, ZERO)
        assert all(r.gap == 0.0 for r in rep.rows)
        assert rep.passed

    def test_alpha_zero_row_exact(self):
        plan = SweepPlan(theorem="T1", horizons=(5.0, 10.0), x=np.zeros(3),
                         y=np.zeros(3), budgets=500, k_list=(1,),
                         alphas=(0.0,), seed=2, h_fine=0.05)
        rep = run_theorem1(plan, BALL)
        mgf_rows = [r for r in rep.rows if r.statistic == "bridge_mgf"]
        assert all(r.value == 1.0 and r.gap == 0.0 for r in mgf_rows)

    def test_unit_ball_mgf_targets_are_exact(self):
        # the default alphas are +-alpha0/2 = +-1/2, and E_0 e^{alpha Y} = 1/cos(sqrt(2 alpha))
        plan = SweepPlan(theorem="T1", horizons=(2.0, 4.0), x=np.zeros(3),
                         y=np.zeros(3), budgets=50, k_list=(1,), seed=4, h_fine=0.1)
        rep = run_theorem1(plan, BALL)
        targets = {r.k_or_alpha: (r.target, r.target_error) for r in rep.rows
                   if r.statistic == "bridge_mgf"}
        assert targets["0.5"][0] == pytest.approx(1.0 / math.cos(1.0) ** 2, rel=1e-12)
        assert targets["-0.5"][0] == pytest.approx(1.0 / math.cosh(1.0) ** 2, rel=1e-12)
        for target, error in targets.values():
            assert error == pytest.approx(2.0 * MGF_TOLERANCE * target)

    def test_off_centre_target_is_a_product(self):
        x, y = np.array([0.5, 0.0, 0.0]), np.array([0.0, 2.0, 0.0])
        plan = SweepPlan(theorem="T1", horizons=(2.0, 4.0), x=x, y=y, budgets=50,
                         k_list=(1,), alphas=(0.4,), seed=4, h_fine=0.1)
        row = next(r for r in run_theorem1(plan, STEP).rows if r.statistic == "bridge_mgf")
        assert row.target == mgf_one_sided(x, STEP, 0.4) * mgf_one_sided(y, STEP, 0.4)

    def test_infinite_target_fails(self):
        # alpha = 2 lies past alpha1 = pi^2/8 of the unit ball: the limit is infinite
        plan = SweepPlan(theorem="T1", horizons=(2.0, 4.0), x=np.zeros(3),
                         y=np.zeros(3), budgets=50, k_list=(1,), alphas=(2.0,),
                         seed=4, h_fine=0.1)
        rep = run_theorem1(plan, BALL)
        assert all(r.target == math.inf for r in rep.rows if r.statistic == "bridge_mgf")
        assert rep.verdicts["bridge_mgf/2"] == "FAIL"

    def test_tabulated_target_is_exact(self):
        # the cell gauge, as for a radial v: no reference leg is drawn
        x, y = np.zeros(3), np.array([0.3, -0.2, 0.1])
        plan = SweepPlan(theorem="T1", horizons=(2.0, 4.0), x=x, y=y, budgets=50,
                         k_list=(1,), alphas=(0.5,), seed=4, h_fine=0.1)
        rep = run_theorem1(plan, TABLE)
        row = next(r for r in rep.rows if r.statistic == "bridge_mgf")
        ux, uy = mgf_one_sided(x, TABLE, 0.5), mgf_one_sided(y, TABLE, 0.5)
        assert row.target == ux * uy > 1.0
        assert row.target_error == pytest.approx(2.0 * CELL_MGF_TOLERANCE * row.target)

    def test_small_flagship(self):
        plan = SweepPlan(theorem="T1", horizons=(10.0, 80.0), x=np.zeros(3),
                         y=np.zeros(3), budgets=4_000,
                         k_list=(1,), seed=11, h_fine=0.02)
        rep = run_theorem1(plan, BALL)
        assert rep.verdicts["bridge_moment/1"] == "PASS"
        rows = [r for r in rep.rows if r.statistic == "bridge_moment"]
        assert rows[-1].gap < rows[0].gap

    def test_low_dimension_rejected(self):
        with pytest.raises(ValueError):
            run_theorem1(SweepPlan(theorem="T1", horizons=(1.0, 2.0),
                                   x=np.zeros(3), y=np.zeros(3), budgets=10),
                         Potential.ball_indicator(2, 1.0))


class TestTheorem2:
    def test_bounded_ratio_branch(self):
        # the first horizon is short enough to be visibly unconverged
        plan = SweepPlan(theorem="T2b", horizons=(10.0, 400.0), x=np.zeros(3),
                         endpoint_rule=EndpointRule("sqrt_t", 1.0),
                         budgets=4_000, k_list=(1,),
                         seed=21, h_fine=0.02)
        rep = run_theorem2(plan, BALL)
        rows = [r for r in rep.rows if r.statistic == "bridge_moment"]
        assert rows[-1].gap < rows[0].gap
        assert rows[-1].target == pytest.approx(1.0, abs=1e-6)
        combined = math.hypot(rows[-1].std_error, rows[-1].target_error)
        assert rows[-1].gap <= 3.0 * combined + 0.01

    def test_mgf_target_is_the_one_sided_mgf(self):
        plan = SweepPlan(theorem="T2b", horizons=(2.0, 4.0), x=np.array([0.3, 0.0, 0.0]),
                         endpoint_rule=EndpointRule("sqrt_t", 1.0), budgets=50,
                         k_list=(1,), alphas=(-0.5,), seed=4, h_fine=0.1)
        rep = run_theorem2(plan, BALL)
        row = next(r for r in rep.rows if r.statistic == "bridge_mgf")
        exact = math.sinh(0.3) / (0.3 * math.cosh(1.0))
        assert row.target == pytest.approx(exact, rel=1e-12)
        assert row.target_error == MGF_TOLERANCE * row.target

    def test_zero_potential(self):
        plan = SweepPlan(theorem="T2a", horizons=(50.0, 100.0), x=np.zeros(3),
                         endpoint_rule=EndpointRule("fourth_root", 1.0),
                         budgets=100, alphas=(0.2,), k_list=(1,), seed=3)
        rep = run_theorem2(plan, ZERO)
        assert all(r.gap == 0.0 for r in rep.rows)
        assert rep.passed


class TestLemma4:
    def test_fixed_start_truncation_only(self):
        # x_n = x: gaps reflect the finite horizon and shrink as it grows
        plan = SweepPlan(theorem="L4a", horizons=(20.0, 200.0, 2000.0),
                         x=np.zeros(3),
                         x_sequence=(np.zeros(3), np.zeros(3), np.zeros(3)),
                         budgets=20_000, k_list=(1,),
                         alphas=(0.0,), seed=31, h_fine=0.02)
        rep = run_lemma4(plan, BALL)
        rows = [r for r in rep.rows if r.statistic == "free_moment"]
        assert rows[0].gap > rows[-1].gap
        assert rows[-1].target == pytest.approx(1.0, abs=1e-6)

    def test_part_a_mgf_target_is_exact(self):
        plan = SweepPlan(theorem="L4a", horizons=(2.0, 4.0), x=np.zeros(3),
                         x_sequence=(np.zeros(3), np.zeros(3)), budgets=50,
                         alphas=(0.5,), k_list=(1,), seed=5, h_fine=0.1)
        rep = run_lemma4(plan, BALL)
        row = next(r for r in rep.rows if r.statistic == "free_mgf")
        assert row.target == pytest.approx(1.0 / math.cos(1.0), rel=1e-12)

    def test_zero_potential_mgf_identity(self):
        plan = SweepPlan(theorem="L4a", horizons=(10.0, 20.0), x=np.zeros(3),
                         x_sequence=(np.zeros(3), np.zeros(3)), budgets=100,
                         alphas=(0.4,), k_list=(1,), seed=5)
        rep = run_lemma4(plan, ZERO)
        mgf_rows = [r for r in rep.rows if r.statistic == "free_mgf"]
        assert all(r.value == 1.0 for r in mgf_rows)

    def test_escaping_start_mgf_drifts_to_identity(self):
        plan = SweepPlan(theorem="L4b", horizons=(60.0, 120.0, 240.0),
                         x=np.array([4.0, 0, 0]),
                         x_sequence=([4.0, 0, 0], [8.0, 0, 0], [16.0, 0, 0]),
                         budgets=25_000, alphas=(0.5,), k_list=(1,),
                         seed=41, h_fine=0.05)
        rep = run_lemma4(plan, BALL)
        rows = [r for r in rep.rows if r.statistic == "mgf_minus_one"]
        vals = [r.value for r in rows]
        assert vals[0] > vals[1] > vals[2]
        assert rep.verdicts["mgf_minus_one/0.5"] == "PASS"


_NO_ALPHA_SWEEPS = {
    "theorem1": (run_theorem1, dict(theorem="T1", y=np.zeros(3))),
    "theorem2": (run_theorem2, dict(theorem="T2b", endpoint_rule=EndpointRule("sqrt_t"))),
    "lemma4": (run_lemma4, dict(theorem="L4a", x_sequence=(np.array([0.3, 0.0, 0.0]),
                                                           np.array([0.1, 0.0, 0.0])))),
}


class TestSweepWithoutAlphas:
    """A sweep draws its own legs only, and its moment rows do not move with alphas.

    The mgf rows of the table and of the ball take the exact one-sided mgf
    (the cell gauge and the Bessel gauge) and draw no reference legs.
    """

    @pytest.mark.parametrize("name", sorted(_NO_ALPHA_SWEEPS))
    def test_only_sweep_legs_drawn(self, monkeypatch, name):
        run, law = _NO_ALPHA_SWEEPS[name]
        collect = estimators._collect
        drawn = []

        def spy(kind, n, cfg):
            drawn.append((kind, cfg.stream_channel))
            return collect(kind, n, cfg)

        monkeypatch.setattr(estimators, "_collect", spy)
        plan = dict(horizons=(4.0, 8.0), x=np.zeros(3), k_list=(1,), budgets=100,
                    h_fine=0.1, seed=5, **law)
        bare = run(SweepPlan(alphas=(), **plan), TABLE)
        leg = "free" if name == "lemma4" else "bridge"
        assert drawn == [(leg, 10), (leg, 11)]
        with_mgf = run(SweepPlan(alphas=(0.5,), **plan), TABLE)
        assert drawn == [(leg, 10), (leg, 11)] * 2
        moment_rows = [r for r in with_mgf.rows if "moment" in r.statistic]
        assert [r.as_list() for r in bare.rows] == [r.as_list() for r in moment_rows]
        del drawn[:]
        run(SweepPlan(alphas=(0.5,), **plan), BALL)
        assert drawn == [(leg, 10), (leg, 11)]


class TestDensityRatioSweep:
    def test_fixed_endpoints_decreasing(self):
        rep = density_ratio_sweep(np.zeros(3), np.array([1.0, 0, 0]),
                                  [100.0, 1000.0, 10000.0], BALL)
        assert rep.verdicts["density_ratio_max_dev"] == "PASS"
        assert rep.verdicts["density_ratio_k0"] == "PASS"
        k0 = [r for r in rep.rows if r.statistic == "density_ratio_k0"]
        assert all(r.value == 1.0 for r in k0)

    def test_growing_endpoint_bounded(self):
        rep = density_ratio_sweep(np.zeros(3), None, [100.0, 1000.0, 10000.0],
                                  BALL, endpoint_rule=EndpointRule("sqrt_t", 1.0))
        assert rep.verdicts["density_ratio_bounded"] == "PASS"
        lo, hi = rep.meta["ratio_bounds"]
        assert 0.0 < lo <= hi < math.inf

    def test_u_rule_guard(self):
        with pytest.raises(ValueError):
            density_ratio_sweep(np.zeros(3), np.zeros(3), [2.0], BALL)
