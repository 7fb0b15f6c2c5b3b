"""The traced benchmark's hooks must keep resolving against the package.

``perfbench/tracing.py`` wraps functions at the module-global names their
callers look up at call time.  A refactor that renames or inlines one of
them does not break the program, but silently blinds the traced run.
These tests read the hook tables (read-only) and check that every name
still resolves and that the sweep path still goes through those names.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from bridgeint import cli, convergence, estimators

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
HOOKS = [(m, a) for m, a, _, _ in tracing.SPAN_HOOKS] + [tracing.POTENTIAL_HOOK,
                                                         tracing.STREAM_HOOK]


@pytest.mark.parametrize("module, attr", HOOKS, ids=[f"{m}.{a}" for m, a in HOOKS])
def test_hook_resolves(module, attr):
    assert tracing._resolve(module, attr) is not None


# a 2 x 2 x 2 table: a non-radial potential, whose mgf targets come from the cell gauge
_TABLE = {"kind": "tabulated", "origin": [-0.5, -0.5, -0.5], "spacing": 0.5,
          "values": [[[1.0, 0.5], [0.25, 0.75]], [[0.5, 1.0], [0.0, 0.5]]]}
_BALL = {"kind": "ball_indicator", "radius": 1.0, "height": 1.0}


def _traced_sweep_calls(tmp_path, monkeypatch, potential):
    """The hooked names a small theorem1 sweep calls, in call order."""
    calls = []

    def spy(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    spy(cli, "run_theorem1")
    spy(convergence, "_one_sided_mgf_reference")
    spy(estimators, "_collect")
    cfg = {
        "dimension": 3, "potential": potential,
        "x": [0.0, 0.0, 0.0], "y": [0.0, 0.0, 0.0],
        "horizons": [2.0, 4.0], "k_list": [1], "alphas": [0.0],
        "n_paths": 20, "target_n_paths": 20, "target_free_horizon": 4.0,
        "grid": {"h_fine": 0.1}, "seed": 3,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    cli.main(["theorem1", "--config", str(path), "--out", str(tmp_path)])
    return calls


def test_sweep_calls_through_hooked_names(tmp_path, monkeypatch):
    calls = _traced_sweep_calls(tmp_path, monkeypatch, _TABLE)
    assert calls.count("run_theorem1") == 1
    # the exact references go through the hooked name and draw nothing: one
    # bridge leg per horizon
    assert calls.count("_one_sided_mgf_reference") == 2
    assert calls.count("_collect") == 2


def test_radial_sweep_references_draw_no_legs(tmp_path, monkeypatch):
    calls = _traced_sweep_calls(tmp_path, monkeypatch, _BALL)
    assert calls.count("run_theorem1") == 1
    # the exact references still go through the hooked name, and draw nothing
    assert calls.count("_one_sided_mgf_reference") == 2
    assert calls.count("_collect") == 2
