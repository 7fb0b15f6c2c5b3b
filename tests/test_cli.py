"""Command-line interface: strict configs, outputs, exit codes, reproducibility."""

import contextlib
import copy
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bridgeint.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_OK, main
from bridgeint.config import ConfigError, load_config
from bridgeint.quadrature import QuadConfig, moment_free, moment_two_sided


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def base_bridge_config(**overrides):
    cfg = {
        "dimension": 3,
        "potential": {"kind": "ball_indicator", "radius": 1.0, "height": 1.0},
        "statistic_kind": "bridge",
        "x": [0.0, 0.0, 0.0],
        "y": [0.0, 0.0, 0.0],
        "t": 5.0,
        "n_paths": 2000,
        "seed": 7,
        "grid": {"h_fine": 0.02},
    }
    cfg.update(overrides)
    return cfg


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, base_bridge_config(bogus=1))
        assert main(["moments", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_unknown_potential_key_rejected(self, tmp_path):
        cfg = base_bridge_config()
        cfg["potential"]["fuzz"] = 2
        path = write_config(tmp_path, cfg)
        assert main(["moments", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_missing_required_field(self, tmp_path):
        cfg = base_bridge_config()
        del cfg["x"]
        path = write_config(tmp_path, cfg)
        assert main(["moments", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_low_dimension_theorem_rejected(self):
        with pytest.raises(ConfigError, match="d >= 3"):
            load_config({
                "dimension": 2,
                "potential": {"kind": "ball_indicator", "radius": 1.0},
                "x": [0.0, 0.0], "y": [0.0, 0.0],
                "horizons": [5.0, 10.0],
            }, "theorem1")

    def test_zero_radius_needs_zero_potential(self):
        with pytest.raises(ConfigError):
            load_config({
                "dimension": 3,
                "potential": {"kind": "ball_indicator", "radius": 0.0},
                "x": [0, 0, 0], "y": [0, 0, 0], "t": 1.0,
            }, "moments")

    def test_theorem2_rule_required(self):
        with pytest.raises(ConfigError):
            load_config({
                "dimension": 3,
                "potential": {"kind": "ball_indicator", "radius": 1.0},
                "x": [0, 0, 0], "horizons": [10.0, 100.0],
            }, "theorem2")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["moments", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("overrides, flags", [
        ({"n_paths": 1}, []),
        ({"t": -1.0}, []),
        ({"x": [0.0, float("nan"), 0.0]}, []),
        ({"dimension": 2, "x": [0.0, 0.0], "y": [0.0, 0.0]}, []),
        ({"workers": 0}, []),
        ({}, ["--workers", "0"]),
        ({"n_paths": "many"}, []),
    ], ids=["n_paths_1", "negative_t", "nan_in_x", "dimension_2", "workers_0",
            "workers_flag_0", "n_paths_not_a_number"])
    def test_bad_input_is_config_error(self, tmp_path, capsys, overrides, flags):
        path = write_config(tmp_path, base_bridge_config(k_list=[1], **overrides))
        code = main(["moments", "--config", path, "--out", str(tmp_path), *flags])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "moments.csv").exists()


_BALL = {"kind": "ball_indicator", "radius": 1.0}
# small budgets, so that a key which slips through fails fast
_SWEEP = {"dimension": 3, "potential": _BALL, "horizons": [4.0, 8.0], "k_list": [1],
          "alphas": [0.0], "n_paths": 20, "target_n_paths": 20,
          "target_free_horizon": 8.0, "grid": {"h_fine": 0.1}}
_MINIMAL = {
    "sample": base_bridge_config(n_paths=20),
    "mgf": base_bridge_config(n_paths=20, alphas=[0.5]),
    "moments": base_bridge_config(n_paths=20, k_list=[1]),
    "bounds": {"dimension": 3, "potential": _BALL},
    "theorem1": dict(_SWEEP, x=[0.0, 0.0, 0.0], y=[0.0, 0.0, 0.0]),
    "theorem2": dict(_SWEEP, x=[0.0, 0.0, 0.0],
                     endpoint_rule={"kind": "sqrt_t", "scale": 1.0}),
    "lemma4": dict(_SWEEP, part="a", x=[0.0, 0.0, 0.0],
                   x_sequence=[[0.2, 0.0, 0.0], [0.1, 0.0, 0.0]]),
    "bloch": {"dimension": 3, "potential": _BALL, "n_paths": 20,
              "bloch_points": [{"x": [0, 0, 0], "y": [0.5, 0, 0], "t": 1.0}]},
}
# lemma4 part b: no limit point, no moment rows, no reference leg
_PART_B = dict({k: v for k, v in _MINIMAL["lemma4"].items()
                if k not in ("x", "k_list", "target_n_paths", "target_free_horizon")},
               part="b", x_sequence=[[6.0, 0.0, 0.0], [12.0, 0.0, 0.0]])


# every command with a time grid: its rule is fixed, and h_fine is its one key
_GRID_COMMANDS = ("sample", "mgf", "moments", "theorem1", "theorem2", "lemma4", "bloch")
_IGNORED_KEYS = [
    ("moments", "grid.policy", "uniform"),
    ("moments", "grid.h", 0.02),
    *((c, k, 3.0) for c in _GRID_COMMANDS for k in ("grid.h_coarse", "grid.u")),
    ("theorem1", "u_rule", "sqrt"),
    ("theorem2", "u_rule", "cbrt"),
    ("theorem1", "free_horizon", 50.0),
    ("theorem2", "free_horizon", 50.0),
    ("lemma4", "free_horizon", 50.0),
    # the tail correction is gone, and its key with it, on every command
    ("sample", "tail_correction", False),
    ("mgf", "tail_correction", False),
    ("moments", "tail_correction", False),
    ("bounds", "tail_correction", False),
    ("theorem1", "tail_correction", False),
    ("theorem2", "tail_correction", False),
    ("lemma4", "tail_correction", False),
    ("bloch", "tail_correction", False),
    ("bounds", "grid", {"h_fine": 0.05}),
]


class TestSchemaRejectsIgnoredKeys:
    """Keys a command does not read are rejected, not silently ignored."""

    @pytest.mark.parametrize("command, key, value", _IGNORED_KEYS,
                             ids=[f"{c}-{k}" for c, k, _ in _IGNORED_KEYS])
    def test_key_rejected(self, tmp_path, capsys, command, key, value):
        cfg = json.loads(json.dumps(_MINIMAL[command]))
        load_config(cfg, command)  # valid without the key
        if key.startswith("grid."):
            cfg.setdefault("grid", {})[key.split(".", 1)[1]] = value
        else:
            cfg[key] = value
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unknown config keys" in err and repr(key) in err


_WRONG_TYPES = [
    # a removed key is rejected whatever its value
    ("moments", "tail_correction", "false"),
    ("moments", "tail_correction", 0),
    ("moments", "n_paths", 20.9),
    ("moments", "n_paths", True),
    ("moments", "k_list", [1.5]),
    ("moments", "k_list", [True]),
    ("moments", "k_list", "1"),
    ("moments", "dimension", True),
    ("moments", "seed", 7.5),
    ("moments", "workers", True),
    ("theorem1", "target_n_paths", 20.5),
    ("theorem1", "n_paths_by_horizon", [20, 20.5]),
    ("theorem1", "k_list", [1.5]),
    # a boolean or a string where a number is read
    ("moments", "t", True),
    ("moments", "t", "5"),
    ("moments", "x", [True, 0, 0]),
    ("moments", "y", [0, 0, False]),
    ("mgf", "alphas", [True]),
    ("theorem1", "horizons", [True, 8]),
    ("theorem2", "target_free_horizon", True),
    ("lemma4", "x_sequence", [[True, 0, 0]]),
]
# (command, config path to the value, value, the key the message names)
_NESTED_WRONG_TYPES = [
    ("moments", ("grid", "h_fine"), True, "grid.h_fine"),
    ("moments", ("potential", "radius"), True, "potential radius"),
    ("moments", ("potential", "height"), False, "potential height"),
    ("moments", ("potential", "center"), [True, 0, 0], "potential center"),
    ("theorem2", ("endpoint_rule", "scale"), True, "endpoint_rule.scale"),
    ("bloch", ("bloch_points", 0, "t"), True, "bloch t"),
    ("bloch", ("bloch_points", 0, "y"), [True, 0, 0], "bloch y"),
]


class TestValueTypes:
    """A value of the wrong type or form exits 2; it is never read as another."""

    @pytest.mark.parametrize("h_fine", ["0", "-0.1", "1e400"])
    @pytest.mark.parametrize("command", ["moments", "theorem1"])
    def test_fine_step_positive_and_finite(self, tmp_path, capsys, command, h_fine):
        # 1e400 is written as it is and read as inf
        text = json.dumps(dict(_MINIMAL[command], grid={"h_fine": 0.5}))
        path = tmp_path / "config.json"
        path.write_text(text.replace('"h_fine": 0.5', f'"h_fine": {h_fine}'))
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "grid.h_fine must be positive and finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command, key, value", _WRONG_TYPES,
                             ids=[f"{c}-{k}-{json.dumps(v)}" for c, k, v in _WRONG_TYPES])
    def test_wrong_type_rejected(self, tmp_path, capsys, command, key, value):
        path = write_config(tmp_path, dict(_MINIMAL[command], **{key: value}))
        assert main([command, "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command, where, value, name", _NESTED_WRONG_TYPES,
                             ids=[n.replace(" ", "_") for *_, n in _NESTED_WRONG_TYPES])
    def test_nested_wrong_type_rejected(self, tmp_path, capsys, command, where, value, name):
        cfg = copy.deepcopy(_MINIMAL[command])
        node = cfg
        for key in where[:-1]:
            node = node[key] if isinstance(key, int) else node.setdefault(key, {})
        node[where[-1]] = value
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert f"{name} must be a" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_radial_step_boolean_rejected(self):
        pot = {"kind": "radial_step", "breakpoints": [0.5, 1.0], "heights": [1.0, True]}
        with pytest.raises(ConfigError, match="potential heights"):
            load_config(dict(_MINIMAL["moments"], potential=pot), "moments")

    def test_integral_floats_accepted(self):
        # n_paths and n_paths_by_horizon are never read together, so one config each
        cfg = load_config(dict(_MINIMAL["theorem1"], n_paths=20.0, seed=3.0,
                               k_list=[1.0]), "theorem1")
        assert (cfg.n_paths, cfg.seed, cfg.budgets(), cfg.k_list) == (20, 3, 20, [1])
        assert all(type(n) is int for n in (cfg.n_paths, cfg.seed, cfg.budgets(), *cfg.k_list))
        by_horizon = {k: v for k, v in _MINIMAL["theorem1"].items() if k != "n_paths"}
        cfg = load_config(dict(by_horizon, n_paths_by_horizon=[20.0, 40]), "theorem1")
        assert cfg.budgets() == [20, 40]
        assert all(type(n) is int for n in cfg.budgets())


class TestTabulatedInput:
    @pytest.mark.parametrize("command", sorted(_MINIMAL))
    def test_empty_table_rejected(self, tmp_path, capsys, command):
        pot = {"kind": "tabulated", "origin": [0.0, 0.0, 0.0], "spacing": 0.5,
               "values": [[[]]]}
        path = write_config(tmp_path, dict(_MINIMAL[command], potential=pot))
        assert main([command, "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "at least one cell on every axis" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*_summary.json"))


_FREE_MOMENTS = {k: v for k, v in base_bridge_config(n_paths=20).items()
                 if k not in ("y", "t")}
_OUT_OF_RANGE_ORDERS = [
    ("moments", _MINIMAL["moments"], [4]),
    ("moments", _MINIMAL["moments"], [-1]),
    ("theorem1", _MINIMAL["theorem1"], [3]),
    ("moments", dict(_FREE_MOMENTS, statistic_kind="free"), [1, 3]),
    # the two-sided binomial sum would need the finite-horizon free k = 3
    ("moments", dict(_FREE_MOMENTS, statistic_kind="two_sided", y=[0.5, 0.0, 0.0]), [1, 3]),
]


class TestMomentOrders:
    """An order no oracle computes is a config error, not a traceback."""

    @pytest.mark.parametrize("command, base, k_list", _OUT_OF_RANGE_ORDERS,
                             ids=["moments-4", "moments-negative", "theorem1-3",
                                  "moments-free-3", "moments-two_sided-3"])
    def test_order_rejected(self, tmp_path, capsys, command, base, k_list):
        path = write_config(tmp_path, dict(base, k_list=k_list))
        assert main([command, "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "k_list orders must lie in" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_bridge_third_moment_accepted(self):
        cfg = load_config(dict(_MINIMAL["moments"], k_list=[1, 2, 3]), "moments")
        assert cfg.k_list == [1, 2, 3]


# valid configs that do not read the key each case below adds to them
_UNREAD_BASES = {
    "bridge": _MINIMAL["moments"],
    "free": dict(_FREE_MOMENTS, statistic_kind="free"),
    "two_sided": dict(_FREE_MOMENTS, statistic_kind="two_sided", y=[0.5, 0.0, 0.0]),
    "by_horizon": dict({k: v for k, v in _MINIMAL["theorem1"].items() if k != "n_paths"},
                       n_paths_by_horizon=[20, 20]),
    "no_alphas": dict({k: v for k, v in _MINIMAL["theorem1"].items()
                       if k not in ("target_n_paths", "target_free_horizon")}, alphas=[]),
}
_UNREAD_KEYS = [
    ("moments", "bridge", "free_horizon", 7.0),
    ("moments", "bridge", "tail_correction", False),
    ("moments", "free", "tail_correction", False),
    ("moments", "two_sided", "tail_correction", False),
    ("moments", "free", "t", 99.0),
    ("moments", "free", "y", [5.0, 0.0, 0.0]),
    ("moments", "two_sided", "t", 99.0),
    ("theorem1", "by_horizon", "n_paths", 999),
    ("theorem1", "no_alphas", "target_n_paths", 20),
    ("theorem1", "no_alphas", "target_free_horizon", 8.0),
]


class TestKeysReadOnlyInSomeModes:
    def test_lemma4_part_b_rejects_x(self, tmp_path, capsys):
        cfg = dict(_MINIMAL["lemma4"], part="b",
                   x_sequence=[[6.0, 0.0, 0.0], [12.0, 0.0, 0.0]])
        path = write_config(tmp_path, cfg)
        assert main(["lemma4", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("k_list", [1]), ("target_n_paths", 20),
                                            ("target_free_horizon", 8.0)])
    def test_lemma4_part_b_rejects_reference_keys(self, tmp_path, capsys, key, value):
        load_config(_PART_B, "lemma4")  # valid without the key
        path = write_config(tmp_path, dict(_PART_B, **{key: value}))
        assert main(["lemma4", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("command, base, key, value", _UNREAD_KEYS,
                             ids=[f"{c}-{k}-{key}" for c, k, key, _ in _UNREAD_KEYS])
    def test_unread_key_rejected(self, tmp_path, capsys, command, base, key, value):
        load_config(_UNREAD_BASES[base], command)  # valid without the key
        path = write_config(tmp_path, dict(_UNREAD_BASES[base], **{key: value}))
        assert main([command, "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert repr(key) in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_theorem2_rejects_endpoint_y(self, tmp_path, capsys):
        cfg = dict(_MINIMAL["theorem2"],
                   endpoint_rule={"kind": "sqrt_t", "scale": 1.0, "y": [1.0, 0.0, 0.0]})
        path = write_config(tmp_path, cfg)
        assert main(["theorem2", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unknown endpoint_rule keys" in err and "'y'" in err


_BAD_BOUNDS = [
    ({"probe_points": [[0.0, 0.0]]}, "dimension mismatch"),
    ({"probe_points": []}, "non-empty list"),
    ({"probe_points": [[float("nan"), 0.0, 0.0]]}, "finite"),
    # the alpha1 probe's grid is gone with the probe: an unknown key
    ({"alphas": [0.5, 0.2], "n_paths": 20}, "unknown config keys"),
]


class TestBoundsInput:
    """Bad probe points, and the removed alpha1 probe's keys, are config errors."""

    @pytest.mark.parametrize("overrides, message", _BAD_BOUNDS,
                             ids=["probe_point_2d", "no_probe_points", "nan_probe_point",
                                  "alphas_decreasing"])
    def test_bad_input_rejected(self, tmp_path, capsys, overrides, message):
        path = write_config(tmp_path, dict(_MINIMAL["bounds"], **overrides))
        assert main(["bounds", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "bounds_summary.json").exists()

    def test_empty_alphas_are_an_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config(dict(_MINIMAL["bounds"], alphas=[]), "bounds")

    def test_probe_keys_rejected_on_a_signed_potential(self, tmp_path, capsys):
        cfg = {"dimension": 3,
               "potential": {"kind": "radial_step", "breakpoints": [0.5, 1.0],
                             "heights": [1.0, -0.5]},
               "alphas": [0.1, 0.5], "n_paths": 50, "free_horizon": 5.0,
               "x": [0.0, 0.0, 0.0]}
        path = write_config(tmp_path, cfg)
        assert main(["bounds", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "'alphas'" in capsys.readouterr().err
        assert not (tmp_path / "bounds_summary.json").exists()

    @pytest.mark.parametrize("alphas", [None, []], ids=["no_alphas", "empty_alphas"])
    @pytest.mark.parametrize("key, value", [("n_paths", 50), ("free_horizon", 5.0),
                                            ("x", [0.0, 0.0, 0.0])])
    def test_probe_keys_rejected_without_the_probe(self, tmp_path, capsys, alphas, key, value):
        cfg = dict(_MINIMAL["bounds"], **{key: value})
        if alphas is not None:
            cfg["alphas"] = alphas
        path = write_config(tmp_path, cfg)
        assert main(["bounds", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert repr(key) in capsys.readouterr().err


class TestOracleCoverage:
    """A moment the oracles cannot compute for this geometry is a config error."""

    _D4 = {"dimension": 4, "potential": _BALL, "statistic_kind": "bridge", "t": 2.0,
           "n_paths": 20, "k_list": [2]}

    def test_bridge_k2_off_axis_in_d4_runs(self, tmp_path):
        # the resolvent's channels take endpoints off the support axis in any d >= 3
        cfg = dict(self._D4, x=[0.5, 0.0, 0.0, 0.0], y=[0.0, 0.5, 0.0, 0.0])
        path = write_config(tmp_path, cfg)
        assert main(["moments", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "moments.csv").exists()

    def test_bridge_beyond_the_declared_accuracy_rejected(self, tmp_path, capsys):
        # antipodal endpoints far outside the ball at a short horizon
        cfg = dict(self._D4, dimension=3, x=[3.0, 0.0, 0.0], y=[-3.0, 0.0, 0.0], t=0.2)
        path = write_config(tmp_path, cfg)
        assert main(["moments", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "declared accuracy" in capsys.readouterr().err
        assert not (tmp_path / "moments.csv").exists()

    def test_free_beyond_the_declared_accuracy_rejected(self, tmp_path, capsys):
        # a start 29 of its standard deviations from the ball: the resolvent
        # applied to 1 cannot resolve E Y(1)^2, and says so before sampling
        cfg = {"dimension": 3, "potential": _BALL, "statistic_kind": "free",
               "x": [30.0, 0.0, 0.0], "free_horizon": 1.0, "n_paths": 20, "k_list": [1, 2]}
        path = write_config(tmp_path, cfg)
        assert main(["moments", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "declared accuracy" in capsys.readouterr().err
        assert not (tmp_path / "moments.csv").exists()

    def test_bridge_k2_on_axis_in_d4_accepted(self):
        cfg = dict(self._D4, x=[0.5, 0.0, 0.0, 0.0], y=[-0.3, 0.0, 0.0, 0.0])
        assert load_config(cfg, "moments").k_list == [2]

    _CUBE = {"kind": "tabulated", "origin": [-0.4] * 3, "spacing": 0.4,
             "values": [[[1.0] * 2] * 2] * 2}

    @pytest.mark.parametrize("potential", [_BALL, _CUBE], ids=["ball", "tabulated"])
    def test_far_endpoint_ends(self, tmp_path, potential):
        # |y - x| overflowed the k = 1 rule's panel cap, which then appended
        # empty panels for ever; now the mean path is in reach only in the
        # last 1e-300 of the horizon, and the k = 1 target is 0
        cfg = base_bridge_config(potential=potential, x=[1e300, 0.0, 0.0], t=1.0,
                                 n_paths=20, k_list=[1])
        path = write_config(tmp_path, cfg)
        # the sampler squares coordinates of 1e300 on its way to the far end,
        # and an infinite distance reads as far without a warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["moments", "--config", path, "--out", str(tmp_path)])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code in (EXIT_OK, EXIT_FAIL)
        with open(tmp_path / "moments.csv") as fh:
            row = list(csv.DictReader(fh))[0]
        assert float(row["target"]) == 0.0

    def test_far_endpoint_k2_is_a_config_error(self, tmp_path, capsys):
        # the tabulated k = 2 pair rule would need 1e8 panels a side here
        cfg = base_bridge_config(potential=self._CUBE, x=[1e9, 0.0, 0.0], y=[-1e9, 0.0, 0.0],
                                 t=1.0, n_paths=20, k_list=[1, 2])
        path = write_config(tmp_path, cfg)
        assert main(["moments", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "too far apart" in capsys.readouterr().err


_NO_STATISTIC = [
    ("theorem1", dict(_MINIMAL["theorem1"], k_list=[], alphas=[]), "at least one statistic"),
    ("lemma4", dict(_PART_B, alphas=[]), "at least one statistic"),
    ("moments", dict(_MINIMAL["moments"], k_list=[]), "at least one k_list order"),
    ("mgf", base_bridge_config(n_paths=20, alphas=[]), "non-empty alphas grid"),
]


class TestAtLeastOneStatistic:
    """A run that would report no statistic is a config error, not a PASS."""

    @pytest.mark.parametrize("command, cfg, message", _NO_STATISTIC,
                             ids=["theorem1", "lemma4_part_b", "moments", "mgf"])
    def test_empty_run_rejected(self, tmp_path, capsys, command, cfg, message):
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))


class TestBoundsCommand:
    def test_unit_ball_values(self, tmp_path):
        cfg = {
            "dimension": 3,
            "potential": {"kind": "ball_indicator", "radius": 1.0, "height": 1.0},
        }
        path = write_config(tmp_path, cfg)
        assert main(["bounds", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
        doc = json.loads((tmp_path / "bounds_summary.json").read_text())
        assert doc["k1"] == pytest.approx(1.0, abs=1e-3)
        assert doc["alpha0"] == pytest.approx(1.0, abs=1e-3)
        assert doc["resolved_config"]["dimension"] == 3

    def test_degenerate_zero_height(self, tmp_path):
        cfg = {
            "dimension": 3,
            "potential": {"kind": "ball_indicator", "radius": 1.0, "height": 0.0},
        }
        path = write_config(tmp_path, cfg)
        assert main(["bounds", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
        doc = json.loads((tmp_path / "bounds_summary.json").read_text())
        assert doc["k1"] == 0.0 and doc["alpha0"] is None and doc["degenerate"]

    def test_probe_keys_exit_2(self, tmp_path, capsys):
        # the alpha1 probe's config: exact alpha1 replaced the Monte Carlo probe
        cfg = {
            "dimension": 3,
            "potential": {"kind": "ball_indicator", "radius": 1.0, "height": 1.0},
            "alphas": [0.0, 0.5, 20.0],
            "n_paths": 1500,
            "free_horizon": 50.0,
        }
        path = write_config(tmp_path, cfg)
        assert main(["bounds", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "unknown config keys" in capsys.readouterr().err
        assert not (tmp_path / "bounds_summary.json").exists()

    # the brackets the Monte Carlo probe reported before exact alpha1
    # replaced it: alphas [0, 0.5, 2, 8, 20] (the digest table) and
    # [0, 0.5, 20] (the ball), 1,500 free legs to horizon 50, seed 3
    _PROBE_BRACKETS = [
        ({"kind": "ball_indicator", "radius": 1.0, "height": 1.0}, (0.5, 20.0)),
        ({"kind": "tabulated", "origin": [-0.8, -0.8, -0.8], "spacing": 0.4,
          "values": [[[((i + 2 * j + 3 * k) % 5) / 4.0 for k in range(4)]
                      for j in range(4)] for i in range(4)]}, (2.0, 8.0)),
    ]

    def test_exact_alpha1_inside_the_probe_bracket(self, tmp_path):
        # the exact blow-up lies inside the bracket the Monte Carlo probe
        # found; pi^2/8 for the unit ball
        exact = []
        for potential, (lo, hi) in self._PROBE_BRACKETS:
            path = write_config(tmp_path, {"dimension": 3, "potential": potential})
            assert main(["bounds", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
            doc = json.loads((tmp_path / "bounds_summary.json").read_text())
            assert lo < doc["alpha1_exact"] < hi
            exact.append(doc["alpha1_exact"])
        assert exact[0] == pytest.approx(math.pi**2 / 8.0, rel=1e-14)

    def test_exact_alpha1_only_for_nonnegative_potentials(self, tmp_path):
        signed = {"kind": "radial_step", "breakpoints": [0.5, 1.0], "heights": [1.0, -0.5]}
        table = {"kind": "tabulated", "origin": [0.0, 0.0, 0.0], "spacing": 0.5,
                 "values": [[[1.0]]]}
        zero = {"kind": "ball_indicator", "radius": 1.0, "height": 0.0}
        for potential, expected in ((signed, "absent"), (zero, None)):
            path = write_config(tmp_path, {"dimension": 3, "potential": potential})
            assert main(["bounds", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
            doc = json.loads((tmp_path / "bounds_summary.json").read_text())
            assert doc.get("alpha1_exact", "absent") == expected
        path = write_config(tmp_path, {"dimension": 3, "potential": table})
        assert main(["bounds", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
        doc = json.loads((tmp_path / "bounds_summary.json").read_text())
        assert 0.0 < doc["alpha1_exact"] < math.inf

    def test_no_probe_entries(self, tmp_path):
        path = write_config(tmp_path, _MINIMAL["bounds"])
        assert main(["bounds", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
        doc = json.loads((tmp_path / "bounds_summary.json").read_text())
        assert "alpha1_bracket" not in doc and "alpha1_probe" not in doc


class TestMomentsCommand:
    def test_bridge_moments_csv(self, tmp_path):
        path = write_config(tmp_path, base_bridge_config(k_list=[1]))
        code = main(["moments", "--config", path, "--out", str(tmp_path)])
        assert code == EXIT_OK
        with open(tmp_path / "moments.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["statistic", "k_or_alpha", "t", "value", "std_error",
                           "target", "target_error", "gap", "verdict"]
        assert rows[1][0] == "moment[bridge]"
        assert rows[1][-1] == "PASS"
        val = float(rows[1][3])
        assert 0.5 < val < 3.0

    def test_zero_potential_mgf(self, tmp_path):
        cfg = base_bridge_config()
        cfg["potential"]["height"] = 0.0
        cfg["alphas"] = [-0.5, 0.0, 1.0]
        path = write_config(tmp_path, cfg)
        assert main(["mgf", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
        doc = json.loads((tmp_path / "mgf_summary.json").read_text())
        assert all(entry["mean"] == 1.0 for entry in doc["curve"])

    def test_sample_command(self, tmp_path):
        path = write_config(tmp_path, base_bridge_config(n_paths=50))
        assert main(["sample", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "sample.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["kind", "index", "value"]
        assert len(rows) == 51

    def test_json_format_skips_rows_file(self, tmp_path):
        path = write_config(tmp_path, base_bridge_config(k_list=[1]))
        code = main(["moments", "--config", path, "--out", str(tmp_path),
                     "--format", "json"])
        assert code == EXIT_OK
        assert not (tmp_path / "moments.csv").exists()
        doc = json.loads((tmp_path / "moments_summary.json").read_text())
        assert doc["moments"][0]["k"] == 1

    def test_two_sided_moments(self, tmp_path):
        cfg = base_bridge_config(statistic_kind="two_sided", k_list=[1, 2],
                                 free_horizon=100.0)
        del cfg["t"]
        cfg["grid"] = {"h_fine": 0.02}
        cfg["n_paths"] = 4000
        path = write_config(tmp_path, cfg)
        code = main(["moments", "--config", path, "--out", str(tmp_path)])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "moments_summary.json").read_text())
        v = load_config(cfg, "moments").potential
        for k, entry in zip((1, 2), doc["moments"]):
            # both legs run to the free horizon, and each row is judged there
            assert entry["target"] == moment_two_sided(cfg["x"], cfg["y"], v, k, horizon=100.0)
            assert entry["verdict"] == "PASS"

    def test_free_rows_use_the_finite_horizon_tolerance(self, tmp_path):
        # the raw integral to the free horizon estimates the law at that horizon
        cfg = dict(_FREE_MOMENTS, statistic_kind="free", k_list=[1, 2], n_paths=200,
                   free_horizon=20.0, grid={"h_fine": 0.05})
        path = write_config(tmp_path, cfg)
        assert main(["moments", "--config", path, "--out", str(tmp_path)]) in (EXIT_OK, EXIT_FAIL)
        with open(tmp_path / "moments.csv") as fh:
            rows = {row["k_or_alpha"]: row for row in csv.DictReader(fh)}
        v = load_config(cfg, "moments").potential
        for k in (1, 2):
            target = float(rows[str(k)]["target"])
            terr = float(rows[str(k)]["target_error"])
            assert target == moment_free(cfg["x"], 20.0, v, k)
            assert terr == QuadConfig().tolerance(k, v) * abs(target)

    def test_bloch_zero_potential_equals_kernel(self, tmp_path):
        from bridgeint.gaussian import transition_density

        cfg = {
            "dimension": 3,
            "potential": {"kind": "ball_indicator", "radius": 1.0, "height": 0.0},
            "bloch_points": [{"x": [0, 0, 0], "y": [1.0, 0, 0], "t": 2.0}],
            "n_paths": 100,
        }
        path = write_config(tmp_path, cfg)
        assert main(["bloch", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
        doc = json.loads((tmp_path / "bloch_summary.json").read_text())
        kernel = transition_density(2.0, np.array([1.0, 0, 0]))
        assert doc["points"][0]["mean"] == pytest.approx(kernel, rel=1e-12)
        assert doc["points"][0]["control"] is None

    def test_control_entries_in_summaries(self, tmp_path):
        # bloch and bridge mgf rows report their control; alpha = 0 keeps the
        # exact 1 and reports none; the CSV columns stay fixed
        bloch = {"dimension": 3, "potential": {"kind": "ball_indicator", "radius": 1.0},
                 "bloch_points": [{"x": [0, 0, 0], "y": [0.5, 0, 0], "t": 1.0}],
                 "n_paths": 200, "grid": {"h_fine": 0.05}}
        mgf = base_bridge_config(alphas=[-1.0, 0.0], n_paths=200)
        for command, cfg, rows_key in (("bloch", bloch, "points"), ("mgf", mgf, "curve")):
            out = tmp_path / command
            path = write_config(tmp_path, cfg)
            assert main([command, "--config", path, "--out", str(out)]) == EXIT_OK
            rows = json.loads((out / f"{command}_summary.json").read_text())[rows_key]
            control = rows[0]["control"]
            assert set(control) == {"m1", "m1_error", "beta", "gap", "gap_error",
                                    "m2", "m2_error", "beta2", "gap2"}
            assert control["beta"] < 0.0 and control["m1"] > 0.0
            assert control["beta2"] > 0.0 and control["m2"] > control["m1"] ** 2
            with open(out / f"{command}.csv") as fh:
                assert next(csv.reader(fh)) == ["statistic", "k_or_alpha", "t", "value",
                                                "std_error", "target", "target_error",
                                                "gap", "verdict"]
        assert rows[1]["control"] is None and rows[1]["mean"] == 1.0

    def test_free_mgf_summary_has_no_control(self, tmp_path):
        cfg = base_bridge_config(statistic_kind="free", alphas=[-1.0], n_paths=200,
                                 free_horizon=10.0, grid={"h_fine": 0.05})
        del cfg["y"], cfg["t"]
        path = write_config(tmp_path, cfg)
        assert main(["mgf", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
        doc = json.loads((tmp_path / "mgf_summary.json").read_text())
        assert "control" not in doc["curve"][0]


class TestReproducibility:
    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, base_bridge_config(k_list=[1, 2]))
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["moments", "--config", path, "--out", str(out1)]) == EXIT_OK
        assert main(["moments", "--config", path, "--out", str(out2)]) == EXIT_OK
        assert (out1 / "moments.csv").read_bytes() == (out2 / "moments.csv").read_bytes()
        assert (out1 / "moments_summary.json").read_bytes() == \
            (out2 / "moments_summary.json").read_bytes()

    def test_seed_flag_changes_output(self, tmp_path):
        path = write_config(tmp_path, base_bridge_config(k_list=[1]))
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["moments", "--config", path, "--out", str(out1)])
        main(["moments", "--config", path, "--out", str(out2), "--seed", "99"])
        assert (out1 / "moments.csv").read_bytes() != (out2 / "moments.csv").read_bytes()

    def test_summary_round_trip(self, tmp_path):
        path = write_config(tmp_path, base_bridge_config(k_list=[1]))
        out1 = tmp_path / "first"
        out2 = tmp_path / "second"
        assert main(["moments", "--config", path, "--out", str(out1)]) == EXIT_OK
        summary = str(out1 / "moments_summary.json")
        assert main(["moments", "--config", summary, "--out", str(out2)]) == EXIT_OK
        assert (out1 / "moments.csv").read_bytes() == (out2 / "moments.csv").read_bytes()


class TestVerdictExitCodes:
    def test_theorem1_fail_is_exit_3(self, tmp_path):
        # two short horizons cannot reach the long-horizon target: FAIL, exit 3
        cfg = {
            "dimension": 3,
            "potential": {"kind": "ball_indicator", "radius": 1.0, "height": 1.0},
            "x": [0.0, 0.0, 0.0],
            "y": [0.0, 0.0, 0.0],
            "horizons": [4.0, 8.0],
            "k_list": [1],
            "alphas": [0.0],
            "n_paths": 3000,
            "target_n_paths": 3000,
            "seed": 5,
            "grid": {"h_fine": 0.05},
        }
        path = write_config(tmp_path, cfg)
        code = main(["theorem1", "--config", path, "--out", str(tmp_path)])
        assert code == EXIT_FAIL
        doc = json.loads((tmp_path / "theorem1_summary.json").read_text())
        assert doc["passed"] is False
        assert doc["verdicts"]["bridge_moment/1"] == "FAIL"

    def test_theorem1_small_pass(self, tmp_path):
        cfg = {
            "dimension": 3,
            "potential": {"kind": "ball_indicator", "radius": 1.0, "height": 1.0},
            "x": [0.0, 0.0, 0.0],
            "y": [0.0, 0.0, 0.0],
            "horizons": [10.0, 100.0],
            "k_list": [1],
            "alphas": [0.0],
            "n_paths": 4000,
            "target_n_paths": 4000,
            "seed": 11,
            "grid": {"h_fine": 0.02},
        }
        path = write_config(tmp_path, cfg)
        code = main(["theorem1", "--config", path, "--out", str(tmp_path)])
        assert code == EXIT_OK

    def test_theorem2_cli(self, tmp_path):
        cfg = {
            "dimension": 3,
            "potential": {"kind": "ball_indicator", "radius": 1.0, "height": 1.0},
            "x": [0.0, 0.0, 0.0],
            "endpoint_rule": {"kind": "sqrt_t", "scale": 1.0},
            "horizons": [10.0, 200.0],
            "k_list": [1],
            "alphas": [0.0],
            "n_paths": 4000,
            "target_n_paths": 4000,
            "seed": 23,
            "grid": {"h_fine": 0.02},
        }
        path = write_config(tmp_path, cfg)
        code = main(["theorem2", "--config", path, "--out", str(tmp_path)])
        assert code in (EXIT_OK, EXIT_FAIL)
        doc = json.loads((tmp_path / "theorem2_summary.json").read_text())
        assert doc["meta"]["endpoint_rule"] == "sqrt_t"
        assert (tmp_path / "theorem2.csv").exists()

    def test_lemma4_cli_parts(self, tmp_path):
        base = {
            "dimension": 3,
            "potential": {"kind": "ball_indicator", "radius": 1.0, "height": 1.0},
            "horizons": [30.0, 120.0],
            "k_list": [1],
            "alphas": [0.3],
            "n_paths": 6000,
            "target_n_paths": 6000,
            "seed": 29,
            "grid": {"h_fine": 0.05},
        }
        cfg_a = dict(base, part="a", x=[0.0, 0.0, 0.0],
                     x_sequence=[[0.3, 0.0, 0.0], [0.1, 0.0, 0.0]])
        path = write_config(tmp_path, cfg_a, "a.json")
        out_a = tmp_path / "a"
        code = main(["lemma4", "--config", path, "--out", str(out_a)])
        assert code in (EXIT_OK, EXIT_FAIL)
        doc = json.loads((out_a / "lemma4_summary.json").read_text())
        stats = {row["statistic"] for row in doc["rows"]}
        assert "free_moment" in stats and "free_mgf" in stats

        # part b reads no moment orders and no reference budget
        cfg_b = {k: v for k, v in base.items() if k not in ("k_list", "target_n_paths")}
        cfg_b.update(part="b", x_sequence=[[6.0, 0.0, 0.0], [12.0, 0.0, 0.0]])
        path = write_config(tmp_path, cfg_b, "b.json")
        out_b = tmp_path / "b"
        code = main(["lemma4", "--config", path, "--out", str(out_b)])
        assert code in (EXIT_OK, EXIT_FAIL)
        doc = json.loads((out_b / "lemma4_summary.json").read_text())
        assert {row["statistic"] for row in doc["rows"]} == {"mgf_minus_one"}

    def test_mgf_overflow_is_flagged(self, tmp_path):
        # exp(20 Z) overflows on a height-50 ball: flagged, not a crash
        cfg = base_bridge_config(t=4.0, alphas=[20.0], n_paths=200)
        cfg["potential"]["height"] = 50.0
        del cfg["grid"]
        path = write_config(tmp_path, cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["mgf", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "mgf.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][-1] == "UNSTABLE"
        assert not math.isfinite(float(rows[1][3]))
        doc = json.loads((tmp_path / "mgf_summary.json").read_text())
        assert doc["curve"][0]["unstable"] is True
        assert doc["curve"][0]["max_sample_share"] == 1.0

    def test_overflowed_mgf_summary_is_strict_json(self, tmp_path):
        cfg = base_bridge_config(t=4.0, alphas=[20.0], n_paths=200)
        cfg["potential"]["height"] = 50.0
        del cfg["grid"]
        path = write_config(tmp_path, cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["mgf", "--config", path, "--out", str(tmp_path)]) == EXIT_OK

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads((tmp_path / "mgf_summary.json").read_text(),
                         parse_constant=reject)
        assert doc["curve"][0]["mean"] is None
        assert doc["curve"][0]["std_error"] is None

    def test_mgf_warns_beyond_alpha0(self, tmp_path):
        cfg = base_bridge_config(t=3.0, alphas=[0.0, 4.0], n_paths=200)
        cfg["potential"] = {"kind": "radial_step", "breakpoints": [0.5, 1.0],
                            "heights": [1.0, -0.5]}
        path = write_config(tmp_path, cfg)
        with pytest.warns(RuntimeWarning, match="alpha0"):
            assert main(["mgf", "--config", path, "--out", str(tmp_path)]) == EXIT_OK

    def test_mgf_unstable_flag_in_csv(self, tmp_path):
        cfg = base_bridge_config(statistic_kind="free", alphas=[40.0],
                                 n_paths=800, free_horizon=50.0)
        del cfg["y"], cfg["t"]
        cfg["grid"] = {"h_fine": 0.05}
        path = write_config(tmp_path, cfg)
        assert main(["mgf", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "mgf.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][-1] == "UNSTABLE"


_ORIGIN = [0.0, 0.0, 0.0]
_TINY_SWEEP = {"horizons": [1.0, 2.0], "n_paths": 4, "target_n_paths": 4,
               "target_free_horizon": 2.0, "grid": {"h_fine": 0.1}}
_TINY_PATH = {"statistic_kind": "bridge", "x": _ORIGIN, "y": _ORIGIN, "t": 1.0,
              "n_paths": 4, "grid": {"h_fine": 0.1}}
# one small valid config per command (both parts of lemma4)
_TINY = {
    "sample": _TINY_PATH,
    "mgf": dict(_TINY_PATH, alphas=[0.5]),
    "moments": dict(_TINY_PATH, k_list=[1]),
    "bounds": {},
    "theorem1": dict(_TINY_SWEEP, x=_ORIGIN, y=_ORIGIN, k_list=[1], alphas=[0.5]),
    "theorem2": dict(_TINY_SWEEP, x=_ORIGIN, k_list=[1], endpoint_rule={"kind": "sqrt_t"}),
    "lemma4/a": dict(_TINY_SWEEP, part="a", x=_ORIGIN, k_list=[1], alphas=[0.5],
                     x_sequence=[[0.3, 0.0, 0.0]]),
    "lemma4/b": {"horizons": [1.0, 2.0], "n_paths": 4, "grid": {"h_fine": 0.1}, "part": "b",
                 "alphas": [0.5], "x_sequence": [[3.0, 0.0, 0.0]]},
    "bloch": {"n_paths": 4, "grid": {"h_fine": 0.1},
              "bloch_points": [{"x": _ORIGIN, "y": [0.5, 0.0, 0.0], "t": 1.0}]},
}
_FUZZ_KEYS = sorted({"dimension", "potential", "seed", "part", "x_sequence", "workers",
                     "tail_correction", "n_paths_by_horizon",
                     *(k for cfg in _TINY.values() for k in cfg)})
_DROP = object()
# small or malformed values only, so a mutated budget or horizon stays cheap
_FUZZ_VALUES = st.sampled_from([
    None, True, -1, 0, 1, 2, 0.5, float("inf"), float("nan"), "a", "b", "",
    [], [1.0], [0.0, 0.0, 0.0], [[0.0, 0.0, 0.0]], [[]], {}, {"kind": "sqrt_t"},
    {"kind": "ball_indicator", "radius": 1.0}, [{"x": _ORIGIN, "y": _ORIGIN}],
])
# values of a near-miss type: a boolean as a string, a fraction for a count
_MALFORMED_VALUES = st.sampled_from(["false", "true", 2.5, 20.9, [1.5], [True], [2, 2.5]])


class TestFuzzedConfigs:
    """Any config, however malformed, ends in exit 0, 2 or 3, never a traceback."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    # crashes found before they exited 2: int(inf) in a budget, and an
    # empty x_sequence indexed by lemma4 part b
    @example(name="bloch", edits=[("n_paths", float("inf"))])
    @example(name="lemma4/b", edits=[("x_sequence", [])])
    @given(name=st.sampled_from(sorted(_TINY)),
           edits=st.lists(st.tuples(st.sampled_from(_FUZZ_KEYS),
                                    st.one_of(st.just(_DROP), _FUZZ_VALUES,
                                              _MALFORMED_VALUES)),
                          max_size=2))
    def test_exit_code_contract(self, name, edits):
        cfg = {"dimension": 3, "seed": 1,
               "potential": {"kind": "ball_indicator", "radius": 1.0, "height": 1.0},
               **copy.deepcopy(_TINY[name])}
        for key, value in edits:
            if value is _DROP:
                cfg.pop(key, None)
            else:
                cfg[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(cfg))
            code = main([name.split("/")[0], "--config", str(path),
                         "--out", str(Path(tmp) / "out")])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_FAIL)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(_TINY)), flag=st.booleans(), data=st.data())
    def test_boolean_number_rejected(self, name, flag, data):
        cfg = _tiny_config(name)
        where = data.draw(st.sampled_from(_number_leaves(cfg)))
        _assert_leaf_rejected(name, cfg, where, flag)

    @pytest.mark.parametrize("name", sorted(_TINY))
    def test_nonfinite_number_rejected(self, name):
        # Python's json reads NaN, Infinity and -Infinity; every number of
        # every command is checked, one at a time
        for where in _number_leaves(_tiny_config(name)):
            for value in (math.nan, math.inf, -math.inf):
                _assert_leaf_rejected(name, _tiny_config(name), where, value)


def _tiny_config(name):
    # a JSON round trip unshares the lists x and y share
    return json.loads(json.dumps({
        "dimension": 3, "seed": 1,
        "potential": {"kind": "ball_indicator", "radius": 1.0, "height": 1.0},
        **_TINY[name]}))


def _number_leaves(cfg):
    """Paths to every number a config holds, float or count, at any depth."""
    leaves = []

    def walk(node, where):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if isinstance(value, (dict, list)):
                walk(value, where + (key,))
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                leaves.append(where + (key,))
    walk(cfg, ())
    return leaves


def _assert_leaf_rejected(name, cfg, where, value):
    """Setting the leaf at ``where`` to ``value`` exits 2 with an error naming its key."""
    node = cfg
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        code = main([name.split("/")[0], "--config", str(path),
                     "--out", str(Path(tmp) / "out")])
    assert code == EXIT_CONFIG, (name, where, value)
    assert [k for k in where if isinstance(k, str)][-1] in err.getvalue(), (where, value)
