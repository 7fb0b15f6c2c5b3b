"""Command-line interface: sampling, estimation, bounds and theorem sweeps.

Outputs are deterministic functions of (config, seed); reruns at any
worker count produce byte-identical files.  Exit codes: 0 success or
PASS, 2 configuration error, 3 verdict FAIL.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config, parse_workers
from .convergence import (
    CSV_COLUMNS,
    ConvergenceReport,
    ReportRow,
    _combined_se,
    _fmt,
    run_lemma4,
    run_theorem1,
    run_theorem2,
)
# estimators._collect is looked up at call time, so a wrapper on it sees every pass
from . import estimators
from .estimators import EstimatorConfig, McEstimate, mc_mgf
from .gaussian import transition_density
from .green import alpha1_interval, k1_bound
from .quadrature import DEFAULT, moment_bridge, moment_free, moment_two_sided

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FAIL = 3


def _write_rows(path: Path, rows, columns=CSV_COLUMNS):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _finite_or_null(obj):
    """A copy of a JSON document with every non-finite float replaced by None."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return None
    return obj


def _write_summary(path: Path, command: str, cfg: ExperimentConfig, payload: dict):
    # strict JSON: an overflowed mgf row (inf value, nan error) is written as null
    doc = {"command": command, "resolved_config": cfg.resolved(), **payload}
    with open(path, "w") as fh:
        json.dump(_finite_or_null(doc), fh, indent=2, sort_keys=True, allow_nan=False,
                  default=_json_default)
        fh.write("\n")


def _estimator_config(cfg: ExperimentConfig, channel: int = 0) -> EstimatorConfig:
    return EstimatorConfig(
        potential=cfg.potential, x=cfg.x, y=cfg.y, t=cfg.t,
        free_horizon=cfg.free_horizon, h_fine=cfg.h_fine, seed=cfg.seed,
        stream_channel=channel, workers=cfg.workers,
    )


def _control_entry(est: McEstimate):
    """The summary entry of a row's moment control; None where the plain mean was kept."""
    return est.control.as_dict() if est.control is not None else None


# -- commands -----------------------------------------------------------------

def cmd_sample(cfg: ExperimentConfig, out: Path, fmt: str) -> int:
    values = estimators._collect(cfg.statistic_kind, cfg.n_paths, _estimator_config(cfg))
    rows = [[cfg.statistic_kind, i, val] for i, val in enumerate(values)]
    payload = {"n": int(values.size), "kind": cfg.statistic_kind,
               "mean": float(np.mean(values))}
    if fmt == "csv":
        _write_rows(out / "sample.csv", rows, columns=("kind", "index", "value"))
    else:
        payload["values"] = [float(v) for v in values]
    _write_summary(out / "sample_summary.json", "sample", cfg, payload)
    return EXIT_OK


def cmd_mgf(cfg: ExperimentConfig, out: Path, fmt: str) -> int:
    curve = mc_mgf(cfg.statistic_kind, cfg.alphas, cfg.n_paths, _estimator_config(cfg))
    t = cfg.t if cfg.statistic_kind == "bridge" else \
        _estimator_config(cfg).resolved_free_horizon()
    rows = []
    for a, est, bad in zip(curve.alphas, curve.estimates, curve.unstable):
        rows.append(ReportRow(f"mgf[{cfg.statistic_kind}]", _fmt(float(a)), t,
                              est.mean, est.std_error, None, None, None,
                              "UNSTABLE" if bad else ""))
    if fmt == "csv":
        _write_rows(out / "mgf.csv", [r.as_list() for r in rows])
    entries = [{"alpha": float(a), **est.as_dict(), "unstable": bool(bad)}
               for a, est, bad in zip(curve.alphas, curve.estimates, curve.unstable)]
    if cfg.statistic_kind == "bridge":
        for entry, est in zip(entries, curve.estimates):
            entry["control"] = _control_entry(est)
    payload = {"curve": entries}
    _write_summary(out / "mgf_summary.json", "mgf", cfg, payload)
    return EXIT_OK


def cmd_moments(cfg: ExperimentConfig, out: Path, fmt: str) -> int:
    est_cfg = _estimator_config(cfg)
    kind = cfg.statistic_kind
    # every kind is judged at its own horizon: t, or the free legs' horizon
    t = cfg.t if kind == "bridge" else est_cfg.resolved_free_horizon()

    def target(k):
        if kind == "bridge":
            return moment_bridge(cfg.x, cfg.y, t, cfg.potential, k)
        if kind == "free":
            return moment_free(cfg.x, t, cfg.potential, k)
        return moment_two_sided(cfg.x, cfg.y, cfg.potential, k, horizon=t)

    try:  # before sampling: a geometry the oracle refuses is a config error
        targets = {k: target(k) for k in cfg.k_list}
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    values = estimators._collect(kind, cfg.n_paths, est_cfg)
    rows, entries = [], []
    all_pass = True
    for k in cfg.k_list:
        est = McEstimate.from_samples(values**k)
        target = targets[k]
        terr = DEFAULT.tolerance(k, cfg.potential, bridge=kind == "bridge") * abs(target)
        gap = abs(est.mean - target)
        row = ReportRow(f"moment[{kind}]", str(k), t, est.mean, est.std_error,
                        target, terr, gap)
        # the sweeps' rule: 3 combined standard errors, hypot(se, terr)
        ok = gap <= 3.0 * _combined_se(row)
        row.verdict = "PASS" if ok else "FAIL"
        all_pass = all_pass and ok
        rows.append(row)
        entries.append({"k": k, **est.as_dict(), "target": target, "gap": gap,
                        "verdict": row.verdict})
    if fmt == "csv":
        _write_rows(out / "moments.csv", [r.as_list() for r in rows])
    _write_summary(out / "moments_summary.json", "moments", cfg,
                   {"moments": entries, "passed": all_pass})
    return EXIT_OK if all_pass else EXIT_FAIL


def cmd_bounds(cfg: ExperimentConfig, out: Path, fmt: str) -> int:
    report = k1_bound(cfg.potential)
    payload = report.as_dict()
    v = cfg.potential
    if v.is_nonnegative:
        # where the gauge blows up; null (inf) for a zero potential
        payload["alpha1_exact"] = alpha1_interval(v)[1]
    _write_summary(out / "bounds_summary.json", "bounds", cfg, payload)
    return EXIT_OK


def _report_outputs(report: ConvergenceReport, name: str, cfg: ExperimentConfig,
                    out: Path, fmt: str) -> int:
    if fmt == "csv":
        report.write_csv(out / f"{name}.csv")
    _write_summary(out / f"{name}_summary.json", name, cfg, report.as_dict())
    return EXIT_OK if report.passed else EXIT_FAIL


def _sweep(run, cfg: ExperimentConfig) -> ConvergenceReport:
    try:
        return run(cfg.sweep_plan(), cfg.potential)
    except ValueError as exc:  # such as an alpha the cell gauge cannot resolve
        raise ConfigError(str(exc)) from exc


def cmd_theorem1(cfg: ExperimentConfig, out: Path, fmt: str) -> int:
    return _report_outputs(_sweep(run_theorem1, cfg), "theorem1", cfg, out, fmt)


def cmd_theorem2(cfg: ExperimentConfig, out: Path, fmt: str) -> int:
    return _report_outputs(_sweep(run_theorem2, cfg), "theorem2", cfg, out, fmt)


def cmd_lemma4(cfg: ExperimentConfig, out: Path, fmt: str) -> int:
    return _report_outputs(_sweep(run_lemma4, cfg), "lemma4", cfg, out, fmt)


def cmd_bloch(cfg: ExperimentConfig, out: Path, fmt: str) -> int:
    rows, entries = [], []
    for i, entry in enumerate(cfg.bloch_points):
        x = np.asarray(entry["x"], dtype=float)
        y = np.asarray(entry["y"], dtype=float)
        t = float(entry["t"])
        est_cfg = _estimator_config(cfg, channel=20 + i)
        est = estimators.bloch_green(x, y, t, cfg.n_paths, est_cfg)
        kernel = transition_density(t, y - x)
        rows.append(ReportRow(f"bloch[{i}]", "", t, est.mean, est.std_error,
                              kernel, 0.0, kernel - est.mean))
        entries.append({"index": i, "x": [float(c) for c in x],
                        "y": [float(c) for c in y], "t": t,
                        **est.as_dict(), "free_kernel": kernel,
                        "control": _control_entry(est)})
    if fmt == "csv":
        _write_rows(out / "bloch.csv", [r.as_list() for r in rows])
    _write_summary(out / "bloch_summary.json", "bloch", cfg, {"points": entries})
    return EXIT_OK


_COMMANDS = {
    "sample": cmd_sample,
    "mgf": cmd_mgf,
    "moments": cmd_moments,
    "bounds": cmd_bounds,
    "theorem1": cmd_theorem1,
    "theorem2": cmd_theorem2,
    "lemma4": cmd_lemma4,
    "bloch": cmd_bloch,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgeint",
        description="Path integrals along Brownian bridges: sampling, "
                    "estimation, quadrature oracles and limit sweeps.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config master seed")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker pool size (default: config value)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="row output format (a JSON summary is always written)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
        if args.seed is not None:
            cfg.seed = int(args.seed)
            cfg.raw["seed"] = int(args.seed)
        if args.workers is not None:
            cfg.workers = parse_workers(args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        code = _COMMANDS[args.command](cfg, out, args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if code == EXIT_FAIL:
        print(f"{args.command}: verdict FAIL", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
