"""Config parsing, exports, and subcommand behavior."""

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solitonforge import cli, flow, geometry, verify
from solitonforge.errors import ParseError, SolitonForgeError

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = cli.parse_config(
            write_config(tmp_path, {"factors": [{"dim": 2, "lambda": 1}]})
        )
        spec = cfg.spec
        assert spec.gauge_C == -1.0
        assert spec.seed_coeffs == (-1e-4,)
        assert spec.step_controls.rtol == 1e-10
        assert spec.step_controls.atol == 1e-10
        assert spec.origin_tol == 1e-8
        assert cfg.sweep_ratios == (0.5, 1.0, 2.0, 4.0, 8.0)

    def test_lambda_defaulted_to_dim_minus_one(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path, {"factors": [{"dim": 3}]}))
        assert cfg.spec.factors[0].einstein_const == 2.0

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(
            tmp_path,
            {"factors": [{"dim": 2, "lambda": 1}], "epsilon_expander": 0.1},
        )
        with pytest.raises(ParseError, match="epsilon_expander"):
            cli.parse_config(path)

    def test_unknown_factor_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"factors": [{"dim": 2, "lam": 1}]})
        with pytest.raises(ParseError, match="lam"):
            cli.parse_config(path)

    def test_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ParseError, match="line"):
            cli.parse_config(str(path))

    def test_invalid_spec_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"factors": [{"dim": 1, "lambda": 0.5}]})
        code = cli.main(["verify", "--config", path])
        assert code == 2
        assert "DimensionTooSmall" in capsys.readouterr().err

    def test_seed_eps_override_parse_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"factors": [{"dim": 2, "lambda": 1}]})
        assert cli.main(["solve", "--config", path, "--seed-eps", "bogus"]) == 2


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve_out")
    path = os.path.join(CONFIG_DIR, "bryant_d2.json")
    code = cli.main(["solve", "--config", path, "--out", str(out)])
    assert code == 0
    return out


class TestExports:
    def test_csv_header_order(self, solved):
        header, _ = cli.read_profile_csv(str(solved / "profile.csv"))
        assert header == [
            "s", "t", "X_1", "Y_1", "L", "H",
            "g_1", "g_dot_1", "g_ddot_1", "u", "u_dot", "u_ddot",
        ]

    def test_round_trip_bit_identical(self, solved, tmp_path):
        header, data = cli.read_profile_csv(str(solved / "profile.csv"))
        # re-serializing the parsed values reproduces the file byte for byte
        original = (solved / "profile.csv").read_text()
        lines = [",".join(header)]
        for row in zip(*(data[h] for h in header)):
            lines.append(",".join(cli._fmt(v) for v in row))
        assert "\n".join(lines) + "\n" == original

    def test_determinism(self, solved, tmp_path):
        path = os.path.join(CONFIG_DIR, "bryant_d2.json")
        assert cli.main(["solve", "--config", path, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "profile.csv").read_bytes() == (
            solved / "profile.csv"
        ).read_bytes()

    def test_json_summary(self, solved):
        summary = json.loads((solved / "profile.json").read_text())
        assert summary["dims"] == [2]
        assert summary["termination"] == "origin"

    def test_format_flag_restricts(self, tmp_path):
        path = os.path.join(CONFIG_DIR, "bryant_d2.json")
        assert cli.main([
            "solve", "--config", path, "--out", str(tmp_path), "--format", "json",
        ]) == 0
        assert not (tmp_path / "profile.csv").exists()
        assert (tmp_path / "profile.json").exists()


class TestPlots:
    def test_plot_series_start_above_zero(self, tmp_path):
        payload = {
            "factors": [{"dim": 2, "lambda": 1}],
            "output": {"plots": ["g1_vs_t", "L_vs_s"]},
        }
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", path, "--out", str(out)]) == 0
        series = np.loadtxt(out / "g1_vs_t.dat")
        assert series[0, 0] > 0.0  # t = 0 is a limit, never a sample
        assert (out / "L_vs_s.dat").exists()

    def test_unknown_series_rejected(self, tmp_path, capsys):
        payload = {
            "factors": [{"dim": 2, "lambda": 1}],
            "output": {"plots": ["g7_vs_t"]},
        }
        path = write_config(tmp_path, payload)
        assert cli.main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("factors, name", [
        ([{"dim": 2, "lambda": 1}], "g7_vs_t"),
        ([{"dim": 2, "lambda": 1}], "g2_dot_vs_t"),
        ([{"dim": 2}, {"dim": 3}], "g3_vs_t"),
    ])
    def test_unknown_series_rejected_before_solving(self, tmp_path, capsys,
                                                    factors, name):
        path = write_config(
            tmp_path, {"factors": factors, "output": {"plots": ["u_vs_t", name]}}
        )
        with pytest.raises(ParseError, match=name):
            cli.parse_config(path)
        out = tmp_path / "o"
        assert cli.main(["solve", "--config", path, "--out", str(out)]) == 2
        assert name in capsys.readouterr().err
        assert not (out / "profile.csv").exists()

    def test_series_names_follow_r(self, tmp_path):
        names = ["L_vs_s", "H_vs_s", "u_vs_t", "u_dot_vs_t",
                 "g1_vs_t", "g1_dot_vs_t", "g2_vs_t", "g2_dot_vs_t"]
        path = write_config(
            tmp_path, {"factors": [{"dim": 2}, {"dim": 3}], "output": {"plots": names}}
        )
        assert cli.parse_config(path).plots == tuple(names)


class TestEnvironment:
    def test_out_env_var_default(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv(cli.OUT_ENV_VAR, str(target))
        path = write_config(tmp_path, {"factors": [{"dim": 2, "lambda": 1}]})
        assert cli.main(["solve", "--config", path]) == 0
        assert (target / "profile.csv").exists()

    def test_cli_out_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_ENV_VAR, str(tmp_path / "ignored"))
        out = tmp_path / "explicit"
        path = write_config(tmp_path, {"factors": [{"dim": 2, "lambda": 1}]})
        assert cli.main(["solve", "--config", path, "--out", str(out)]) == 0
        assert (out / "profile.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestSubcommands:
    def test_verify_exit_zero_on_pass(self, tmp_path, capsys):
        path = os.path.join(CONFIG_DIR, "bryant_d2.json")
        code = cli.main(["verify", "--config", path, "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "verify: PASS" in out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"] is True

    def test_ricci_flat_subcommand(self, tmp_path, capsys):
        path = os.path.join(CONFIG_DIR, "ricci_flat_d2_3.json")
        code = cli.main(["ricci-flat", "--config", path, "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "profile.json").read_text())
        assert summary["max_abs_L"] <= 1e-8
        assert summary["max_abs_H_minus_1"] <= 1e-8
        assert summary["max_abs_ricci"] <= 1e-6

    def test_seed_eps_overrides_change_result(self, tmp_path):
        path = os.path.join(CONFIG_DIR, "r2_d2_3.json")
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["solve", "--config", path, "--out", str(a)]) == 0
        assert cli.main([
            "solve", "--config", path, "--out", str(b),
            "--seed-eps", "2=2e-6",
        ]) == 0
        sa = json.loads((a / "profile.json").read_text())
        sb = json.loads((b / "profile.json").read_text())
        assert sa["seed_coeffs"] != sb["seed_coeffs"]

    def test_curvature_subcommand(self, tmp_path):
        path = os.path.join(CONFIG_DIR, "r2_d2_3.json")
        assert cli.main(["curvature", "--config", path, "--out", str(tmp_path)]) == 0
        header, curv = cli.read_profile_csv(str(tmp_path / "curvature.csv"))
        assert header == [
            "t", "ric_tt", "ric_factor_1", "ric_factor_2",
            "sect_mixed_t_1", "sect_mixed_t_2", "scalar_R",
        ]
        _, profile = cli.read_profile_csv(str(tmp_path / "profile.csv"))
        assert len(curv["t"]) == len(profile["t"]) > 0
        assert np.array_equal(curv["t"], profile["t"])
        summary = json.loads((tmp_path / "profile.json").read_text())
        assert summary["min_ricci"] >= -1e-8
        assert np.isfinite(summary["curvature_slope"])


    def test_sweep_reads_only_the_boundary_limits(self, tmp_path, capsys, monkeypatch):
        """sweep needs g_i(0) alone: it runs neither the curvature nor the
        suite."""
        def unused(*args):
            raise AssertionError("sweep computed what it does not report")

        monkeypatch.setattr(verify, "run_suite", unused)
        monkeypatch.setattr(geometry, "sectional_curvatures", unused)
        path = os.path.join(CONFIG_DIR, "sweep_d2_3.json")
        assert cli.main(["sweep", "--config", path, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "sweep_report.json").read_text())
        assert len(report["points"]) == 5
        assert "pairwise distinct: True" in capsys.readouterr().out


class TestRicciFlatGates:
    def test_oracle_exit_zero(self, tmp_path):
        """u_dot vanishes in Ricci-flat mode; its deviation is measured
        against w, not against its own roundoff-sized maximum."""
        path = os.path.join(CONFIG_DIR, "ricci_flat_d2_3.json")
        assert cli.main(["oracle", "--config", path, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "profile.json").read_text())
        assert summary["oracle_deviations"]["u_dot"] <= 1e-6

    @pytest.mark.parametrize("bump, code", [
        ({}, 0),
        ({"ricci": 2e-6}, 1),
        ({"L": 2e-8}, 1),
        ({"H": 2e-8}, 1),
    ])
    def test_ricci_flat_exit_follows_residuals(self, tmp_path, monkeypatch,
                                               capsys, bump, code):
        run, ricci = flow.run, geometry.ricci_components

        def bumped_run(spec):
            traj = run(spec)
            return dataclasses.replace(traj, L=traj.L + bump.get("L", 0.0),
                                       H=traj.H + bump.get("H", 0.0))

        def bumped_ricci(profile, spec):
            ric_tt, ric_factor = ricci(profile, spec)
            return ric_tt + bump.get("ricci", 0.0), ric_factor

        monkeypatch.setattr(flow, "run", bumped_run)
        monkeypatch.setattr(geometry, "ricci_components", bumped_ricci)
        path = os.path.join(CONFIG_DIR, "ricci_flat_d2_3.json")
        assert cli.main(["ricci-flat", "--config", path, "--out", str(tmp_path)]) == code
        assert ("FAIL" in capsys.readouterr().out) == (code == 1)


class TestConfigHardening:
    """Malformed values fail with a ParseError naming the key (exit 2)."""

    @pytest.mark.parametrize("key", ["rtol", "atol"])
    @pytest.mark.parametrize("value", ["nan", "inf", -1, 0, "tight", None])
    def test_tolerance_must_be_finite_positive(self, tmp_path, key, value):
        path = write_config(
            tmp_path, {"factors": [{"dim": 2, "lambda": 1}], key: value}
        )
        with pytest.raises(ParseError, match=key):
            cli.parse_config(path)
        assert cli.main(["solve", "--config", path, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("tol", ["nan", "-1e-10", "0"])
    def test_tol_override_must_be_finite_positive(self, tmp_path, tol):
        path = write_config(tmp_path, {"factors": [{"dim": 2, "lambda": 1}]})
        argv = ["solve", "--config", path, "--out", str(tmp_path), f"--tol={tol}"]
        assert cli.main(argv) == 2

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("flag, key", [
        ("--seed-eps0={}", "--seed-eps0"),
        ("--seed-eps=2={}", "--seed-eps 2"),
    ])
    @pytest.mark.parametrize("command, config", [
        ("solve", "r2_d2_3"),
        ("ricci-flat", "ricci_flat_d2_3"),
    ])
    def test_seed_override_must_be_finite(self, tmp_path, capsys, monkeypatch,
                                          command, config, flag, key, value):
        """A non-finite seed override is a ParseError naming the flag,
        raised before anything is integrated or written."""
        monkeypatch.setattr(flow, "run", lambda spec: pytest.fail("integrated"))
        path = os.path.join(CONFIG_DIR, f"{config}.json")
        out = tmp_path / "o"
        argv = [command, "--config", path, "--out", str(out), flag.format(value)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "ParseError" in err and f"{key} must be a finite number" in err
        assert not out.exists()

    @pytest.mark.parametrize("dim", ["two", 2.7, 0, -3, True, "2"])
    def test_dim_must_be_positive_integer(self, tmp_path, dim):
        path = write_config(tmp_path, {"factors": [{"dim": 2}, {"dim": dim}]})
        with pytest.raises(ParseError, match=r"factors\[1\]\.dim"):
            cli.parse_config(path)
        assert cli.main(["solve", "--config", path, "--out", str(tmp_path)]) == 2

    def test_dim_too_large_for_a_float_exits_2(self, tmp_path, capsys):
        path = write_config(
            tmp_path, {"factors": [{"dim": 2}, {"dim": 10**400, "lambda": 1.0}]}
        )
        out = tmp_path / "o"
        assert cli.main(["solve", "--config", path, "--out", str(out)]) == 2
        assert "factors[1].dim" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_past_digit_limit_exits_2(self, tmp_path, capsys):
        """json.loads refuses an integer literal of more than 4300 digits
        with a plain ValueError; that is a malformed config, not a crash."""
        path = tmp_path / "config.json"
        path.write_text(
            '{"factors": [{"dim": 2}, {"dim": 1' + "0" * 5000 + ', "lambda": 1.0}]}'
        )
        out = tmp_path / "o"
        with pytest.raises(ParseError):
            cli.parse_config(str(path))
        assert cli.main(["solve", "--config", str(path), "--out", str(out)]) == 2
        assert "digits" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("plots", [True, "u_vs_t", {"u_vs_t": 1}, [1]])
    def test_plots_must_be_list(self, tmp_path, plots):
        path = write_config(
            tmp_path,
            {"factors": [{"dim": 2, "lambda": 1}], "output": {"plots": plots}},
        )
        with pytest.raises(ParseError, match="output.plots"):
            cli.parse_config(path)
        assert cli.main(["solve", "--config", path, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("where, key, value", [
        (None, "gauge_C", "x"),
        (None, "s_start", "x"),
        (None, "s_max", "big"),
        (None, "origin_tol", "x"),
        ("factors", "lambda", "x"),
        (None, "max_steps", "many"),
        (None, "max_steps", 2.5),
        ("output", "thin", "x"),
        (None, "seed_coeffs", 5),
        ("sweep", "ratios", 3),
        ("sweep", "ratios", []),
        ("sweep", "ratios", [2.0]),
        ("sweep", "ratios", [1.0, -1.0]),
        ("sweep", "ratios", [0.0, 1.0]),
        ("sweep", "coeff_index", 1.5),
        (None, "initial_step", -1),
        (None, "initial_step", 0),
        (None, "initial_step", "x"),
        (None, "initial_step", 1e30),
    ])
    def test_malformed_value_exits_2(self, tmp_path, capsys, where, key, value):
        payload = {"factors": [{"dim": 2, "lambda": 1}], "output": {}, "sweep": {}}
        target = payload if where is None else (
            payload["factors"][0] if where == "factors" else payload[where])
        target[key] = value
        path = write_config(tmp_path, payload)
        assert cli.main(["solve", "--config", path, "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err


    def test_bad_sweep_ratios_rejected_before_writing(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "factors": [{"dim": 2}, {"dim": 3}], "seed_coeffs": [-1e-6, 1e-6],
            "sweep": {"ratios": [1.0, -1.0]},
        })
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 2
        assert "sweep.ratios" in capsys.readouterr().err
        assert not out.exists()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
_CONFIG_SLOTS = (
    [(None, key) for key in sorted(cli._TOP_KEYS)]
    + [("factors", key) for key in sorted(cli._FACTOR_KEYS)]
    + [("output", key) for key in sorted(cli._OUTPUT_KEYS)]
    + [("sweep", key) for key in sorted(cli._SWEEP_KEYS)]
)


@given(slot=st.sampled_from(_CONFIG_SLOTS), value=_JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_any_single_value_parses_or_fails_cleanly(slot, value):
    """A valid config with any one key replaced by any JSON value either
    parses or raises the package's own error, never a raw exception."""
    config = {
        "factors": [{"dim": 2, "lambda": 1.0}, {"dim": 3, "lambda": 2.0}],
        "seed_coeffs": [-1e-6, 1e-6],
        "output": {"thin": 1},
        "sweep": {"coeff_index": 1, "ratios": [1.0, 2.0]},
    }
    where, key = slot
    target = config if where is None else (
        config["factors"][0] if where == "factors" else config[where])
    target[key] = value
    try:
        parsed = cli.parse_config(json.dumps(config), inline=True)
    except SolitonForgeError:
        return
    assert isinstance(parsed, cli.RunConfig)


_MAIN_SLOTS = _CONFIG_SLOTS + [("factors[1]", key) for key in sorted(cli._FACTOR_KEYS)]


@given(slot=st.sampled_from(_MAIN_SLOTS), value=_JSON_VALUES)
@example(slot=("factors[1]", "dim"), value=10**400)
@example(slot=(None, "atol"), value=1e-300)
@settings(max_examples=500, deadline=None)
def test_any_single_value_solves_or_exits_cleanly(slot, value):
    """main(["solve", ...]) on a short valid run with any one key replaced
    by any JSON value returns an exit code; no raw exception escapes."""
    config = {
        "factors": [{"dim": 2, "lambda": 1.0}, {"dim": 3, "lambda": 2.0}],
        "seed_coeffs": [-1e-6, 1e-6],
        "s_max": 5.0,
        "output": {"thin": 1},
        "sweep": {"coeff_index": 1, "ratios": [1.0, 2.0]},
    }
    where, key = slot
    target = {
        None: config, "factors": config["factors"][0],
        "factors[1]": config["factors"][1],
        "output": config["output"], "sweep": config["sweep"],
    }[where]
    target[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        code = cli.main(["solve", "--config", path, "--out", os.path.join(tmp, "out")])
    assert code in (0, 1, 2)


def test_underflowing_atol_exits_2_without_numpy_warnings(tmp_path, capsys):
    """An atol near underflow overflows the stepper's norms and Newton
    matrices; the run ends in exit 2 through the stepper's own finiteness
    checks, and numpy prints no RuntimeWarning on the way."""
    config = {
        "factors": [{"dim": 2, "lambda": 1.0}, {"dim": 3, "lambda": 2.0}],
        "seed_coeffs": [-1e-6, 1e-6],
        "s_max": 5.0,
        "atol": 1e-300,
    }
    path = write_config(tmp_path, config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["solve", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "must not contain infs or NaNs" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, flag", [
    ("ricci-flat", "ricci_flat_d2_3", "--seed-eps0=1e308"),
    ("solve", "r2_d2_3", "--seed-eps=2=1e308"),
])
def test_overflowing_seed_exits_2_without_numpy_warnings(tmp_path, capsys, command,
                                                         config, flag):
    """Finite seed coefficients whose seed overflows |v|^2 are named as
    the fault, before any projection or Lyapunov test warns about them."""
    path = os.path.join(CONFIG_DIR, f"{config}.json")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, "--config", path, "--out", str(out), flag])
    assert code == 2
    assert "seed_coeffs" in capsys.readouterr().err
    assert not out.exists()


def test_module_entry_point_runs_without_runpy_warning():
    """`python -m solitonforge.cli` must not find the module already
    imported by the package (runpy's RuntimeWarning)."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "solitonforge.cli",
         "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("where, value, message", [
    ("gauge_C", -1e308, "profile field w is not finite"),
    ("lambda", 1e308, "profile field g is not finite"),
    ("gauge_C", -5e-324, "cumulative quadrature is not finite"),
])
def test_overflowing_profile_exits_2_without_numpy_warnings(
        tmp_path, capsys, where, value, message):
    """An accepted but extreme gauge_C or lambda overflows the recovered
    profile; solve exits 2 naming what is not finite, writes no profile,
    and numpy prints no RuntimeWarning on the way."""
    config = {
        "factors": [{"dim": 2, "lambda": 1.0}, {"dim": 3, "lambda": 2.0}],
        "seed_coeffs": [-1e-6, 1e-6],
        "s_max": 5.0,
    }
    if where == "lambda":
        config["factors"][1]["lambda"] = value
    else:
        config[where] = value
    path = write_config(tmp_path, config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["solve", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "profile.csv").exists()
