"""Experiment harnesses: horizon sweeps against the long-time limit laws.

Each run produces a ConvergenceReport with one row per (statistic,
horizon): the bridge-side Monte Carlo estimate with its standard error,
the limit target, the gap, and a verdict.  Moment targets come from
quadrature.  An mgf target is the one-sided mgf E_x exp(alpha Y), or the
product of two for a fixed endpoint, from the gauge
(``green.mgf_one_sided``): in closed form for a radial potential and by
the cell solve for a tabulated one, so no sweep draws a reference leg.
A statistic passes when the final-horizon gap
is finite and below threshold and the gap has shrunk since the first
horizon; thresholds default to max(3 combined SE, 1% of target) because the
limit theorems come with no rates.  An infinite target, an alpha past the
mgf's blow-up point alpha1, fails.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

# estimators._collect is looked up at call time, so a wrapper on it sees every leg
from . import estimators
from .estimators import EstimatorConfig, McEstimate, _mgf_estimate
from .gaussian import TimePoints, density_ratio
from .green import k1_bound, mgf_one_sided, mgf_tolerance
from .path_sim import DEFAULT_H_FINE
from .potentials import Potential
from .quadrature import DEFAULT, moment_free, moment_two_sided

__all__ = [
    "EndpointRule",
    "SweepPlan",
    "ReportRow",
    "ConvergenceReport",
    "run_theorem1",
    "run_theorem2",
    "run_lemma4",
    "density_ratio_sweep",
]

@dataclass(frozen=True)
class EndpointRule:
    """How an escaping terminal endpoint grows with the horizon.

    sqrt_t:       y(t) = scale * sqrt(t) * e1   (|y|^2/t bounded away from 0, inf)
    fourth_root:  y(t) = scale * t^(1/4) * e1   (|y| -> inf, |y|^2/t -> 0)

    The growth conditions hold by construction of the rule, so they are
    validated symbolically rather than sampled.  A fixed endpoint is not a
    rule: theorem-1 plans take ``y`` directly.
    """

    kind: str
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("sqrt_t", "fourth_root"):
            raise ValueError(f"unknown endpoint rule {self.kind!r}")
        if not (float(self.scale) > 0):
            raise ValueError("growing endpoint rules need a positive scale")

    def y_at(self, t: float, d: int) -> np.ndarray:
        e1 = np.zeros(d)
        e1[0] = 1.0
        if self.kind == "sqrt_t":
            return float(self.scale) * math.sqrt(t) * e1
        return float(self.scale) * t**0.25 * e1


@dataclass
class SweepPlan:
    """One experiment: theorem tag, horizon grid, endpoints, budgets."""

    theorem: str
    horizons: tuple
    x: np.ndarray
    y: np.ndarray = None
    endpoint_rule: EndpointRule | None = None
    x_sequence: tuple | None = None
    alphas: tuple | None = None
    budgets: int | tuple = 10_000
    k_list: tuple = (1, 2)
    seed: int = 0
    workers: int = 1
    h_fine: float = DEFAULT_H_FINE

    def __post_init__(self):
        if self.theorem not in ("T1", "T2a", "T2b", "L4a", "L4b"):
            raise ValueError(f"unknown theorem tag {self.theorem!r}")
        horizons = tuple(float(t) for t in self.horizons)
        if len(horizons) < 2:
            raise ValueError("a sweep needs at least two horizons")
        if any(b <= a for a, b in zip(horizons, horizons[1:])):
            raise ValueError("horizons must be strictly increasing")
        self.horizons = horizons
        self.x = np.asarray(self.x, dtype=float)
        if self.y is not None:
            self.y = np.asarray(self.y, dtype=float)
        if self.theorem == "T1" and (self.y is None or self.endpoint_rule is not None):
            raise ValueError("theorem-1 sweeps need a fixed endpoint y, not an endpoint rule")
        if self.theorem == "T2a":
            if self.endpoint_rule is None or self.endpoint_rule.kind != "fourth_root":
                raise ValueError("the T2a branch needs the fourth_root endpoint rule "
                                 "(|y|^2 / t -> 0)")
        if self.theorem == "T2b":
            if self.endpoint_rule is None or self.endpoint_rule.kind != "sqrt_t":
                raise ValueError("the T2b branch needs the sqrt_t endpoint rule "
                                 "(|y|^2 / t bounded away from 0 and infinity)")
        if self.theorem in ("L4a", "L4b"):
            if self.x_sequence is None or len(self.x_sequence) != len(self.horizons):
                raise ValueError("lemma-4 sweeps need one start point per horizon")
            seq = tuple(np.asarray(p, dtype=float) for p in self.x_sequence)
            self.x_sequence = seq
            if self.theorem == "L4b":
                norms = [float(np.linalg.norm(p)) for p in seq]
                if any(b <= a for a, b in zip(norms, norms[1:])):
                    raise ValueError("the escaping branch needs |x_n| strictly increasing")

    def budget_for(self, i: int) -> int:
        if isinstance(self.budgets, (list, tuple)):
            return int(self.budgets[i])
        return int(self.budgets)


@dataclass
class ReportRow:
    statistic: str
    k_or_alpha: str
    t: float
    value: float
    std_error: float
    target: float | None
    target_error: float | None
    gap: float | None
    verdict: str = ""

    def as_list(self):
        return [self.statistic, self.k_or_alpha, self.t, self.value, self.std_error,
                self.target, self.target_error, self.gap, self.verdict]


CSV_COLUMNS = ("statistic", "k_or_alpha", "t", "value", "std_error",
               "target", "target_error", "gap", "verdict")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


@dataclass
class ConvergenceReport:
    """Rows plus per-statistic verdicts for one sweep."""

    rows: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v == "PASS" for v in self.verdicts.values())

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in self.rows:
                writer.writerow([_fmt(v) for v in row.as_list()])

    def as_dict(self):
        return {
            "meta": self.meta,
            "verdicts": dict(sorted(self.verdicts.items())),
            "passed": self.passed,
            "rows": [dict(zip(CSV_COLUMNS, r.as_list())) for r in self.rows],
        }


def _combined_se(row: ReportRow) -> float:
    te = row.target_error or 0.0
    return math.hypot(row.std_error, te)


def _apply_verdict(rows: list, zero_floor: float = 1e-12) -> str:
    """PASS when the final gap beats the threshold and the first gap."""
    rows = sorted(rows, key=lambda r: r.t)
    first, last = rows[0], rows[-1]
    scale = abs(last.target) if last.target else 0.0
    threshold = max(3.0 * _combined_se(last), 1e-2 * scale)
    trend = last.gap < first.gap or last.gap <= zero_floor * max(1.0, scale)
    ok = math.isfinite(last.gap) and last.gap <= threshold and trend
    verdict = "PASS" if ok else "FAIL"
    last.verdict = verdict
    return verdict


def _trend_verdict(rows: list) -> str:
    """PASS when the gap shrinks at every horizon and ends within noise.

    For statistics with no finite-start limit to hit: the deviation decays
    like |x|^(2-d) but never vanishes, so the verdict is trend-based.
    """
    ordered = sorted(rows, key=lambda r: r.t)
    gaps = [r.gap for r in ordered]
    shrinking = all(b < a for a, b in zip(gaps, gaps[1:]))
    last = ordered[-1]
    threshold = max(3.0 * last.std_error, 0.5 * gaps[0])
    verdict = "PASS" if (shrinking and last.gap <= threshold) else "FAIL"
    last.verdict = verdict
    return verdict


def _sampler(plan: SweepPlan, v: Potential, channel: int, **law) -> EstimatorConfig:
    """Sampler config on the plan's grid, seed and workers, on its own stream channel."""
    return EstimatorConfig(potential=v, seed=plan.seed, stream_channel=channel,
                           workers=plan.workers, h_fine=plan.h_fine, **law)


@dataclass(frozen=True)
class _Stat:
    """One reported statistic of a sweep and the limit it is compared with.

    ``order`` is the moment order k, or None for the mgf at ``alpha``.
    ``minus_one`` reports |mgf - 1| in place of the mgf itself.
    """

    name: str
    label: str
    order: int | None = None
    alpha: float = 0.0
    target: float = 0.0
    target_error: float = 0.0
    minus_one: bool = False

    def estimate(self, values: np.ndarray) -> McEstimate:
        if self.order is not None:
            return McEstimate.from_samples(values**self.order)
        return _mgf_estimate(values, self.alpha)


def _one_sided_mgf_reference(v, x, alphas):
    """Per alpha, (target, absolute error) of the infinite-horizon mgf from x.

    The gauge, up to its declared relative error (``green.mgf_tolerance``).
    """
    exact = {a: mgf_one_sided(x, v, a) for a in alphas}
    return {a: (u, mgf_tolerance(v) * abs(u)) for a, u in exact.items()}


def _resolve_alphas(plan: SweepPlan, v: Potential):
    if plan.alphas is not None:
        return tuple(float(a) for a in plan.alphas)
    bounds = k1_bound(v)
    if bounds.degenerate:
        return (0.0,)
    half = 0.5 * bounds.alpha0
    return (-half, half)


def _check_plan(plan: SweepPlan, v: Potential, tags: tuple):
    if plan.theorem not in tags:
        raise ValueError(f"plan/theorem mismatch: expected a {' or '.join(tags)} plan, "
                         f"got {plan.theorem!r}")
    if v.dim < 3:
        raise ValueError("limit-theorem sweeps assume transience, d >= 3")


def _moment_stats(name: str, k_list, target_of, v: Potential) -> list:
    stats = []
    for k in k_list:
        tgt = target_of(k)
        terr = DEFAULT.tolerance(k, v, infinite_horizon=True) * abs(tgt)
        stats.append(_Stat(name, str(k), order=k, target=tgt, target_error=terr))
    return stats


def _one_sided_stats(prefix: str, x, alphas, plan: SweepPlan, v: Potential) -> list:
    """Moments and mgfs against the infinite-horizon one-sided law started at x."""
    stats = _moment_stats(f"{prefix}_moment", plan.k_list,
                          lambda k: moment_free(x, math.inf, v, k), v)
    if not alphas:  # no mgf rows, so no references to compute
        return stats
    ref = _one_sided_mgf_reference(v, x, alphas)
    return stats + [_Stat(f"{prefix}_mgf", _fmt(a), alpha=a, target=ref[a][0],
                          target_error=ref[a][1]) for a in alphas]


def _sweep(plan: SweepPlan, legs: list, stats: list, meta: dict,
           verdict=_apply_verdict) -> ConvergenceReport:
    """The horizon loop shared by every limit sweep.

    ``legs`` holds one (sample kind, EstimatorConfig) per horizon.  Each
    horizon adds one row per statistic, in ``stats`` order; ``verdict``
    then judges each statistic on its rows across the horizons.
    """
    report = ConvergenceReport(meta=meta)
    groups: dict = {}
    for i, (t, (kind, cfg)) in enumerate(zip(plan.horizons, legs)):
        values = estimators._collect(kind, plan.budget_for(i), cfg)
        for stat in stats:
            est = stat.estimate(values)
            value = abs(est.mean - 1.0) if stat.minus_one else est.mean
            row = ReportRow(stat.name, stat.label, t, value, est.std_error,
                            stat.target, stat.target_error, abs(value - stat.target))
            groups.setdefault((stat.name, stat.label), []).append(row)
            report.rows.append(row)
    for key, rows in groups.items():
        report.verdicts["/".join(key)] = verdict(rows)
    return report


def run_theorem1(plan: SweepPlan, v: Potential) -> ConvergenceReport:
    """Fixed endpoints: bridge statistics against two-sided limit targets.

    Moments are compared with the quadrature value of E (Y_x + Y'_y)^k;
    the mgf is compared with the product of the two one-sided mgfs, so a
    pass also certifies the factorized limit form.
    """
    _check_plan(plan, v, ("T1",))
    x, y = plan.x, plan.y
    alphas = _resolve_alphas(plan, v)

    stats = _moment_stats("bridge_moment", plan.k_list,
                          lambda k: moment_two_sided(x, y, v, k), v)
    if alphas:  # no mgf rows, so no references to compute
        mgf_x = _one_sided_mgf_reference(v, x, alphas)
        mgf_y = _one_sided_mgf_reference(v, y, alphas)
        for a in alphas:
            (ux, ex), (uy, ey) = mgf_x[a], mgf_y[a]
            stats.append(_Stat("bridge_mgf", _fmt(a), alpha=a, target=ux * uy,
                               target_error=abs(ux) * ey + abs(uy) * ex))
    legs = [("bridge", _sampler(plan, v, 10 + i, x=x, y=y, t=t))
            for i, t in enumerate(plan.horizons)]
    return _sweep(plan, legs, stats, {
        "theorem": "T1", "alphas": list(alphas), "horizons": list(plan.horizons)})


def run_theorem2(plan: SweepPlan, v: Potential) -> ConvergenceReport:
    """Escaping endpoint: bridge statistics against one-sided targets."""
    _check_plan(plan, v, ("T2a", "T2b"))
    alphas = _resolve_alphas(plan, v)
    stats = _one_sided_stats("bridge", plan.x, alphas, plan, v)
    legs = [("bridge", _sampler(plan, v, 10 + i, x=plan.x, t=t,
                                y=plan.endpoint_rule.y_at(t, v.dim)))
            for i, t in enumerate(plan.horizons)]
    return _sweep(plan, legs, stats, {
        "theorem": plan.theorem, "alphas": list(alphas),
        "endpoint_rule": plan.endpoint_rule.kind, "horizons": list(plan.horizons)})


def run_lemma4(plan: SweepPlan, v: Potential) -> ConvergenceReport:
    """Free-motion continuity (part a) and escaping-start (part b) sweeps.

    Part (a): finite-horizon one-sided statistics at (x_n, t_n) against the
    fixed-limit targets at x.  Part (b): |mgf - 1| must shrink as the start
    escapes, consistent with the |x|^(2-d) decay of the expected occupation;
    the mgf itself tends to 1, the multiplicative identity.
    """
    _check_plan(plan, v, ("L4a", "L4b"))
    alphas = _resolve_alphas(plan, v)
    if plan.theorem == "L4b":
        alphas = tuple(a for a in alphas if a > 0) or alphas
    meta = {"theorem": plan.theorem, "alphas": list(alphas),
            "horizons": list(plan.horizons),
            "x_sequence": [list(map(float, p)) for p in plan.x_sequence]}
    legs = [("free", _sampler(plan, v, 10 + i, x=x_n, free_horizon=t))
            for i, (t, x_n) in enumerate(zip(plan.horizons, plan.x_sequence))]
    if plan.theorem == "L4b":
        stats = [_Stat("mgf_minus_one", _fmt(a), alpha=a, minus_one=True) for a in alphas]
        return _sweep(plan, legs, stats, meta, verdict=_trend_verdict)
    stats = _one_sided_stats("free", plan.x, alphas, plan, v)
    return _sweep(plan, legs, stats, meta)


def density_ratio_sweep(x, y, horizons, v: Potential, *, probe_points=None,
                        endpoint_rule: EndpointRule | None = None) -> ConvergenceReport:
    """Worst-case deviation of the bridge/free density ratio from 1 per horizon.

    Probes use interior times straddling the bulk, s_j < u < t - u < s_{j+1}
    with u = sqrt(t), and space points inside the support.  With fixed
    endpoints the deviation must shrink along the horizon grid; with a
    sqrt-growth endpoint the ratio stays inside fixed positive bounds instead.
    """
    d = v.dim
    x = np.asarray(x, dtype=float).reshape(d)
    if probe_points is None:
        probes = [v.center.copy()]
        if v.support_radius > 0:
            e1 = np.zeros(d)
            e1[0] = 1.0
            for frac in (0.5, 0.99):
                probes.append(v.center + frac * v.support_radius * e1)
                probes.append(v.center - frac * v.support_radius * e1)
        probe_points = probes
    probe_points = [np.asarray(p, dtype=float).reshape(d) for p in probe_points]

    report = ConvergenceReport(meta={"horizons": [float(t) for t in horizons]})
    max_rows = []
    bound_lo, bound_hi = math.inf, 0.0
    for t in horizons:
        t = float(t)
        u = math.sqrt(t)
        if 2.0 * u >= t:
            raise ValueError(f"u(t) must satisfy u < t/2; got u={u} at t={t}")
        y_t = np.asarray(y, dtype=float).reshape(d) if endpoint_rule is None \
            else endpoint_rule.y_at(t, d)
        devs = []
        for z1 in probe_points:
            # one interior point late (j = 0 straddles) and early (j = 1 straddles)
            q = density_ratio(x, y_t, TimePoints((t - u / 2.0,), t), [z1], 0)
            devs.append(q)
            q = density_ratio(x, y_t, TimePoints((u / 2.0,), t), [z1], 1)
            devs.append(q)
            for z2 in probe_points:
                q = density_ratio(x, y_t, TimePoints((u / 2.0, t - u / 2.0), t),
                                  [z1, z2], 1)
                devs.append(q)
        devs = np.asarray(devs)
        bound_lo = min(bound_lo, float(devs.min()))
        bound_hi = max(bound_hi, float(devs.max()))
        row = ReportRow("density_ratio_max_dev", "", t,
                        float(np.max(np.abs(devs - 1.0))), 0.0, 0.0, 0.0,
                        float(np.max(np.abs(devs - 1.0))))
        max_rows.append(row)
        report.rows.append(row)
        q0 = density_ratio(x, y_t, TimePoints((), t), np.empty((0, d)), 0)
        report.rows.append(ReportRow("density_ratio_k0", "", t, q0, 0.0,
                                     1.0, 0.0, abs(q0 - 1.0)))
    ordered = sorted(max_rows, key=lambda r: r.t)
    gaps = [r.gap for r in ordered]
    if endpoint_rule is None:
        verdict = "PASS" if all(b < a for a, b in zip(gaps, gaps[1:])) else "FAIL"
        report.verdicts["density_ratio_max_dev"] = verdict
    else:
        bounded = bound_lo > 0.0 and math.isfinite(bound_hi)
        verdict = "PASS" if bounded else "FAIL"
        report.verdicts["density_ratio_bounded"] = verdict
        report.meta["ratio_bounds"] = [bound_lo, bound_hi]
    ordered[-1].verdict = verdict
    k0_ok = all(r.value == 1.0 for r in report.rows if r.statistic == "density_ratio_k0")
    report.verdicts["density_ratio_k0"] = "PASS" if k0_ok else "FAIL"
    return report
