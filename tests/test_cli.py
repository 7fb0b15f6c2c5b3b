"""Command-line interface: strict configs, outputs, exit codes, reproducibility."""

import csv
import json
import math

import numpy as np
import pytest

from bridgeint.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_OK, main
from bridgeint.config import ConfigError, load_config


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


_IGNORED_KEYS = [
    ("moments", "grid.policy", "uniform"),
    ("moments", "grid.h", 0.02),
    ("theorem1", "grid.u", 3.0),
    ("theorem1", "u_rule", "sqrt"),
    ("theorem2", "u_rule", "cbrt"),
    ("theorem1", "free_horizon", 50.0),
    ("theorem2", "free_horizon", 50.0),
    ("lemma4", "free_horizon", 50.0),
    ("sample", "tail_correction", False),
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


_FREE_MOMENTS = {k: v for k, v in base_bridge_config(n_paths=20).items()
                 if k not in ("y", "t")}
_OUT_OF_RANGE_ORDERS = [
    ("moments", _MINIMAL["moments"], [4]),
    ("moments", _MINIMAL["moments"], [-1]),
    ("theorem1", _MINIMAL["theorem1"], [3]),
    ("moments", dict(_FREE_MOMENTS, statistic_kind="free"), [1, 3]),
]


class TestMomentOrders:
    """An order no oracle computes is a config error, not a traceback."""

    @pytest.mark.parametrize("command, base, k_list", _OUT_OF_RANGE_ORDERS,
                             ids=["moments-4", "moments-negative", "theorem1-3",
                                  "moments-free-3"])
    def test_order_rejected(self, tmp_path, capsys, command, base, k_list):
        path = write_config(tmp_path, dict(base, k_list=k_list))
        assert main([command, "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "k_list orders must lie in" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_bridge_third_moment_accepted(self):
        cfg = load_config(dict(_MINIMAL["moments"], k_list=[1, 2, 3]), "moments")
        assert cfg.k_list == [1, 2, 3]


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
    ({"alphas": [0.5, 0.2], "n_paths": 20}, "strictly increasing"),
]


class TestBoundsInput:
    """Bad probe points or a probe grid out of order are config errors."""

    @pytest.mark.parametrize("overrides, message", _BAD_BOUNDS,
                             ids=["probe_point_2d", "no_probe_points", "nan_probe_point",
                                  "alphas_decreasing"])
    def test_bad_input_rejected(self, tmp_path, capsys, overrides, message):
        path = write_config(tmp_path, dict(_MINIMAL["bounds"], **overrides))
        assert main(["bounds", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "bounds_summary.json").exists()

    def test_empty_alphas_turn_the_probe_off(self):
        cfg = load_config(dict(_MINIMAL["bounds"], alphas=[]), "bounds")
        assert cfg.alphas == []


class TestOracleCoverage:
    """A moment the oracles cannot compute for this geometry is a config error."""

    _D4 = {"dimension": 4, "potential": _BALL, "statistic_kind": "bridge", "t": 2.0,
           "n_paths": 20, "k_list": [2]}

    def test_bridge_k2_off_axis_in_d4_rejected(self, tmp_path, capsys):
        cfg = dict(self._D4, x=[0.5, 0.0, 0.0, 0.0], y=[0.0, 0.5, 0.0, 0.0])
        path = write_config(tmp_path, cfg)
        assert main(["moments", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "off the support axis" in capsys.readouterr().err
        assert not (tmp_path / "moments.csv").exists()

    def test_bridge_k2_on_axis_in_d4_accepted(self):
        cfg = dict(self._D4, x=[0.5, 0.0, 0.0, 0.0], y=[-0.3, 0.0, 0.0, 0.0])
        assert load_config(cfg, "moments").k_list == [2]


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

    def test_alpha1_probe_attached(self, tmp_path):
        cfg = {
            "dimension": 3,
            "potential": {"kind": "ball_indicator", "radius": 1.0, "height": 1.0},
            "alphas": [0.0, 0.5, 20.0],
            "n_paths": 1500,
            "free_horizon": 50.0,
        }
        path = write_config(tmp_path, cfg)
        assert main(["bounds", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
        doc = json.loads((tmp_path / "bounds_summary.json").read_text())
        assert "alpha1_probe" in doc
        assert doc["alpha1_probe"]["unstable"][0] is False


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
        assert rows[0] == ["kind", "index", "value", "tail_potential"]
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
        k1 = next(e for e in doc["moments"] if e["k"] == 1)
        k2 = next(e for e in doc["moments"] if e["k"] == 2)
        assert k1["target"] == pytest.approx(2.0, abs=1e-3)
        assert k2["target"] is None

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
