"""Config parsing, exports, and subcommand behavior."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import solitonforge as sf
from solitonforge import cli, flow, geometry, oracle, reconstruct, verify
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

    def test_curvature_computes_ricci_once(self, tmp_path, monkeypatch):
        """The report feeds the exports, the gate and the tail fits, so a
        curvature run evaluates the Ricci components once."""
        calls = []
        ricci = geometry.ricci_components

        def counted(profile, spec):
            calls.append(1)
            return ricci(profile, spec)

        monkeypatch.setattr(geometry, "ricci_components", counted)
        path = os.path.join(CONFIG_DIR, "bryant_d2.json")
        assert cli.main(["curvature", "--config", path, "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

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


    @pytest.mark.parametrize("planted, code", [
        (None, 0),
        ("collapse_g1", 1),
        ("noncollapsing_factors", 1),
    ])
    def test_sweep_exit_follows_boundary_checks(self, tmp_path, capsys, monkeypatch,
                                                planted, code):
        """sweep exits 1 when a point fails one of its boundary checks, and
        names the point and the check on stderr; stdout and the report are
        those of a passing sweep."""
        boundary_checks = verify.boundary_checks
        points = []

        def planted_failure(profile):
            boundary, checks = boundary_checks(profile)
            points.append(profile)
            if len(points) == 3:   # the point of ratio 2
                checks = [dataclasses.replace(c, measured=2 * c.tolerance)
                          if c.name == planted else c for c in checks]
            return boundary, checks

        monkeypatch.setattr(verify, "boundary_checks", planted_failure)
        path = os.path.join(CONFIG_DIR, "sweep_d2_3.json")
        assert cli.main(["sweep", "--config", path, "--out", str(tmp_path)]) == code
        out, err = capsys.readouterr()
        assert "pairwise distinct: True" in out and "FAIL" not in out
        report = json.loads((tmp_path / "sweep_report.json").read_text())
        assert len(report["points"]) == 5
        if planted is None:
            assert err == ""
        else:
            assert err.splitlines() == [
                f"sweep[2]: ratio 2: FAIL {planted}: measured 0.002 (tol 0.001)"]


class TestRicciFlatGates:
    def test_oracle_exit_zero(self, tmp_path):
        """u_dot vanishes in Ricci-flat mode; its deviation is measured
        against w, not against its own roundoff-sized maximum."""
        path = os.path.join(CONFIG_DIR, "ricci_flat_d2_3.json")
        assert cli.main(["oracle", "--config", path, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "profile.json").read_text())
        assert summary["oracle_deviations"]["u_dot"] <= 1e-6

    @pytest.mark.parametrize("plant, failed", [
        ({}, None),
        ({"g": 2e-6}, "oracle_deviation: measured 2e-06 (tol 1e-06)"),
        ({"g_dot": math.nan}, "oracle_deviation: measured nan (tol 1e-06)"),
        ({"drift": 2e-8}, "conservation_drift: measured 2e-08 (tol 1e-08)"),
    ], ids=["nothing", "deviation", "nan_deviation", "drift"])
    def test_oracle_exit_follows_checks(self, tmp_path, monkeypatch, capsys,
                                        plant, failed):
        """oracle (here on bryant_d2) exits 1 when a deviation exceeds 1e-6,
        is NaN in any field, or the conservation drift exceeds 1e-8, and
        names the failing check on stderr."""
        compare, drift = oracle.compare_profiles, oracle.OracleRun.conservation_drift

        def planted_compare(profile, run):
            devs = compare(profile, run)
            devs.update((k, v) for k, v in plant.items() if k in devs)
            return devs

        monkeypatch.setattr(oracle, "compare_profiles", planted_compare)
        monkeypatch.setattr(oracle.OracleRun, "conservation_drift",
                            lambda run: plant.get("drift", drift(run)))
        path = os.path.join(CONFIG_DIR, "bryant_d2.json")
        code = cli.main(["oracle", "--config", path, "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert out.startswith("oracle: max relative deviation")
        assert code == (failed is not None)
        assert err.splitlines() == ([f"oracle: FAIL {failed}"] if failed else [])

    @pytest.mark.parametrize("bump, code", [
        ({}, 0),
        ({"ricci": 2e-6}, 1),
        ({"L": 2e-8}, 1),
        ({"H": 2e-8}, 1),
        ({"u_dot": 2e-12}, 1),
        ({"ric_factor": math.nan}, 1),
    ])
    def test_ricci_flat_exit_follows_residuals(self, tmp_path, monkeypatch,
                                               capsys, bump, code):
        run, build = flow.run, reconstruct.build_profile
        ricci = geometry.ricci_components

        def bumped_run(spec):
            traj = run(spec)
            return dataclasses.replace(traj, L=traj.L + bump.get("L", 0.0),
                                       H=traj.H + bump.get("H", 0.0))

        def bumped_build(traj, spec):
            profile = build(traj, spec)
            return dataclasses.replace(
                profile, u_dot=profile.u_dot + bump.get("u_dot", 0.0))

        def bumped_ricci(profile, spec):
            ric_tt, ric_factor = ricci(profile, spec)
            # one entry, and not the first: max() would drop it
            ric_factor[-1, -1] += bump.get("ric_factor", 0.0)
            return ric_tt + bump.get("ricci", 0.0), ric_factor

        monkeypatch.setattr(flow, "run", bumped_run)
        monkeypatch.setattr(reconstruct, "build_profile", bumped_build)
        monkeypatch.setattr(geometry, "ricci_components", bumped_ricci)
        path = os.path.join(CONFIG_DIR, "ricci_flat_d2_3.json")
        assert cli.main(["ricci-flat", "--config", path, "--out", str(tmp_path)]) == code
        out, err = capsys.readouterr()
        assert ("FAIL" in out) == (code == 1)
        assert ("ricci-flat: FAIL max_abs_" in err) == (code == 1)

    @pytest.mark.parametrize("command, config", [
        ("ricci-flat", "bryant_d2"),
        ("ricci-flat", "r1_d9"),
        ("solve", {"factors": [{"dim": 2}], "mode": "ricci_flat"}),
    ])
    def test_single_factor_ricci_flat_rejected(self, tmp_path, capsys, monkeypatch,
                                               command, config):
        """With r = 1 the Ricci-flat set is just the two rest points: the
        spec is a ValidationError naming factors and mode, raised before
        anything is integrated or written."""
        monkeypatch.setattr(flow, "run", lambda spec: pytest.fail("integrated"))
        path = (write_config(tmp_path, config) if isinstance(config, dict)
                else os.path.join(CONFIG_DIR, f"{config}.json"))
        out = tmp_path / "o"
        assert cli.main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "ValidationError" in err and "factors" in err and "mode" in err
        assert "seed_coeffs" not in err
        assert not out.exists()


class TestCurvatureGates:
    @pytest.mark.parametrize("bump, code, failed", [
        ({}, 0, None),
        ({"ricci": -2e-8}, 1, "ricci_nonnegative"),
        ({"residual": 2e-6}, 1, "soliton_residual"),
        ({"g_gdot": 2e-3}, 1, "paraboloid_g_gdot"),
        ({"slope": 0.2}, 1, "curvature_decay"),
        ({"ladder": 0.5}, 1, "scalar_growth"),
    ])
    def test_curvature_exit_follows_checks(self, tmp_path, monkeypatch, capsys,
                                           bump, code, failed):
        """curvature exits 1 when min Ric < -1e-8, |Ric + Hess u| > 1e-6,
        or a soliton tail claim fails (here g g' off its limit by 2e-3,
        a |K| slope of -0.8, and an R t^2 ladder with one falling rung),
        with the same stdout, and names the failing check, alone, on
        stderr."""
        curvatures, asymptotics = geometry.sectional_curvatures, geometry.asymptotics

        def bumped(profile, spec):
            curv = curvatures(profile, spec)
            return dataclasses.replace(
                curv, ric_tt=curv.ric_tt + bump.get("ricci", 0.0),
                soliton_residual_max=curv.soliton_residual_max
                + bump.get("residual", 0.0))

        def bumped_tail(profile, curv):
            asym = asymptotics(profile, curv)
            ladder = asym.R_t2_ladder.copy()
            if "ladder" in bump:
                ladder[3] = ladder[2] * bump["ladder"]
            return dataclasses.replace(
                asym, g_gdot_limit=asym.g_gdot_limit + bump.get("g_gdot", 0.0),
                curvature_slope=asym.curvature_slope + bump.get("slope", 0.0),
                R_t2_ladder=ladder)

        monkeypatch.setattr(geometry, "sectional_curvatures", bumped)
        monkeypatch.setattr(geometry, "asymptotics", bumped_tail)
        path = os.path.join(CONFIG_DIR, "bryant_d2.json")
        assert cli.main(["curvature", "--config", path, "--out", str(tmp_path)]) == code
        out, err = capsys.readouterr()
        assert out.startswith("curvature: min Ricci") and "FAIL" not in out
        assert re.findall(r"curvature: FAIL (\w+):", err) == ([failed] if failed else [])
        assert (tmp_path / "curvature.csv").exists()

    def test_nan_residual_fails(self, tmp_path, monkeypatch, capsys):
        """A NaN in u' must reach soliton_residual_max, which Python's
        max() would drop, and fail the soliton_residual check."""
        build_profile = reconstruct.build_profile

        def planted(traj, spec):
            profile = build_profile(traj, spec)
            u_dot = profile.u_dot.copy()
            u_dot[-1] = math.nan
            return dataclasses.replace(profile, u_dot=u_dot)

        monkeypatch.setattr(reconstruct, "build_profile", planted)
        path = os.path.join(CONFIG_DIR, "bryant_d2.json")
        assert cli.main(["curvature", "--config", path, "--out", str(tmp_path)]) == 1
        summary = json.loads((tmp_path / "profile.json").read_text())
        assert math.isnan(summary["soliton_residual_max"])
        assert "curvature: FAIL soliton_residual:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "curvature"])
    def test_run_too_short_for_the_tail_fits_exits_2(self, tmp_path, capsys,
                                                     command):
        """Both commands fit the tail, and a run with fewer than three
        decades of t has too little tail to fit: exit 2, not a verdict.
        `verify` has written the profile before the suite runs, so the
        partial run is kept; `curvature` needs its tail fits for
        profile.json."""
        with open(os.path.join(CONFIG_DIR, "bryant_d2.json"), encoding="utf-8") as fh:
            config = dict(json.load(fh), s_max=30.0)
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.main([command, "--config", path, "--out", str(out)]) == 2
        assert "error [InsufficientTail]" in capsys.readouterr().err
        if command == "verify":
            assert (out / "profile.csv").is_file() and (out / "profile.json").is_file()
            assert not (out / "verify_report.json").exists()

    def test_truncated_tail_fails_the_paraboloid_limits(self, tmp_path, capsys):
        """At s_max = 300 the tail is long enough to fit but g g' and g^2/t
        are still short of their limits: curvature exits 1 on those two."""
        with open(os.path.join(CONFIG_DIR, "bryant_d2.json"), encoding="utf-8") as fh:
            config = dict(json.load(fh), s_max=300.0)
        path = write_config(tmp_path, config)
        assert cli.main(["curvature", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert re.findall(r"curvature: FAIL (\w+):", capsys.readouterr().err) == [
            "paraboloid_g_gdot", "paraboloid_g_sq_over_t"]

    def test_ricci_flat_curvature_writes_no_soliton_tail_fits(self, tmp_path):
        """A Ricci-flat end is a cone, where g g' and g^2/t grow and R is
        roundoff: those fields are null, and only the 1/t^2 decay of |K|
        is reported."""
        path = os.path.join(CONFIG_DIR, "ricci_flat_d2_3.json")
        assert cli.main(["curvature", "--config", path, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "profile.json").read_text())
        for key in ("g_gdot_limits", "g_sq_over_t_limits", "scalar_slope"):
            assert summary[key] is None
        assert summary["curvature_slope"] == pytest.approx(-2.0, abs=0.01)


class TestOutputDirectory:
    @pytest.mark.parametrize("command, config", [
        ("solve", "bryant_d2"),
        ("verify", "bryant_d2"),
        ("sweep", "sweep_d2_3"),
    ])
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_that_cannot_be_a_directory_exits_2(self, tmp_path, capsys,
                                                    command, config, below):
        """--out naming a file, or a path below a file, is an IoError
        naming the directory (exit 2), not a raw OSError."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = os.path.join(str(blocker), below) if below else str(blocker)
        path = os.path.join(CONFIG_DIR, f"{config}.json")
        assert cli.main([command, "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "IoError" in err and f"cannot create output directory {out}" in err
        assert blocker.read_text() == ""


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

    def test_tol_below_the_rtol_floor_exits_2(self, tmp_path, capsys, monkeypatch):
        """An rtol below 100 machine epsilons is a ValidationError naming
        rtol, raised before anything is integrated."""
        monkeypatch.setattr(flow, "run", lambda spec: pytest.fail("integrated"))
        path = os.path.join(CONFIG_DIR, "bryant_d2.json")
        argv = ["verify", "--config", path, "--out", str(tmp_path / "o"), "--tol", "1e-20"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "ValidationError" in err and "rtol" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, config, flag, named", [
        ("solve", "r2_d2_3", "--seed-eps=2=1e150", "seed_coeffs[1] = 1e+150"),
        ("ricci-flat", "ricci_flat_d2_3", "--seed-eps0=1e150", "rest point"),
    ])
    def test_seed_outside_its_region_names_seed_coeffs(self, tmp_path, capsys, command,
                                                       config, flag, named):
        """A soliton seed pushed out of the unit ball by one coefficient
        names that coefficient; a Ricci-flat seed that projects onto a
        rest point names seed_coeffs.  Both exit 2 and write nothing."""
        path = os.path.join(CONFIG_DIR, f"{config}.json")
        out = tmp_path / "o"
        assert cli.main([command, "--config", path, "--out", str(out), flag]) == 2
        err = capsys.readouterr().err
        assert "SeedLeavesWrongRegion" in err and "seed_coeffs" in err and named in err
        assert "eps0" not in err
        assert not out.exists()

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
@example(slot=(None, "rtol"), value=1e-20)
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


def test_every_public_name_resolves():
    """Each name in solitonforge.__all__ is an attribute of the package,
    so a stale export fails here rather than in a user's import."""
    missing = [name for name in sf.__all__ if not hasattr(sf, name)]
    assert missing == []


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


@pytest.mark.parametrize("command, config", [
    ("solve", "r2_d2_3"),
    ("verify", "r2_d2_3"),
    ("curvature", "r2_d2_3"),
    ("oracle", "r2_d2_3"),
    ("ricci-flat", "ricci_flat_d2_3"),
    ("sweep", "sweep_d2_3"),
])
def test_readme_gate_tables_match_the_gates(tmp_path, monkeypatch, command,
                                             config):
    """README's command table names exactly the checks that gate the
    command on a shipped config (those it hands to _gate, or run_suite's
    for verify), and its checks table gives each of them its tolerance:
    the docs cannot name a check that no longer exists, nor a stale
    tolerance."""
    named, tolerances = {}, {}
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
              encoding="utf-8") as fh:
        for line in fh:
            cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
            if len(cells) == 3 and cells[0].startswith("`"):
                key = cells[0].strip("`")
                if key in cli._COMMANDS:
                    named[key] = set(re.findall(r"`(\w+)`", cells[2]))
                else:
                    tolerances[key] = float(cells[2])
    assert set(named) == set(cli._COMMANDS)
    assert set(tolerances) == set().union(*named.values())

    returned = []
    gate, run_suite = cli._gate, verify.run_suite

    def recorded_gate(label, checks):
        returned.extend(checks)
        return gate(label, checks)

    def recorded_suite(*args):
        report = run_suite(*args)
        returned.extend(report.checks)
        return report

    monkeypatch.setattr(cli, "_gate", recorded_gate)
    monkeypatch.setattr(verify, "run_suite", recorded_suite)

    path = os.path.join(CONFIG_DIR, f"{config}.json")
    assert cli.main([command, "--config", path, "--out", str(tmp_path)]) == 0
    assert {c.name for c in returned} == named[command]
    assert all(tolerances[c.name] == c.tolerance for c in returned)
