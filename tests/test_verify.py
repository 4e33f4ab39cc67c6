"""The verification suite itself: extrapolation helpers and claim checks."""

import dataclasses
import math

import numpy as np
import pytest

import solitonforge as sf
from conftest import SOLITON_CASES
from solitonforge import verify
from solitonforge.errors import IncompleteInputs, TooFewSamples


class TestRichardson:
    def test_exact_quadratic(self):
        t = np.array([0.1, 0.05, 0.025])
        vals = list(zip(t, 3.0 + t**2))
        limit, err = verify.richardson_extrapolate(vals, order=2)
        assert limit == pytest.approx(3.0, abs=1e-10)

    def test_sinc_limit(self):
        t = 0.1 * 0.5 ** np.arange(6)
        vals = list(zip(t, np.sin(t) / t))
        limit, err = verify.richardson_extrapolate(vals, order=4, parity="even")
        assert limit == pytest.approx(1.0, abs=1e-6)
        assert err >= abs(limit - 1.0)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            verify.richardson_extrapolate([(0.1, 1.0), (0.05, 1.1)], order=1)

    def test_even_parity_beats_plain_t_for_even_data(self):
        t = 0.2 * 0.5 ** np.arange(4)
        vals = list(zip(t, np.cos(t)))
        even, _ = verify.richardson_extrapolate(vals, order=3, parity="even")
        plain, _ = verify.richardson_extrapolate(vals, order=3, parity="none")
        assert abs(even - 1.0) <= abs(plain - 1.0)
        assert even == pytest.approx(1.0, abs=1e-9)


class TestRunSuite:
    def test_bryant_all_pass(self, pipeline):
        case = pipeline("d2")
        report = verify.run_suite(case.traj, case.profile, case.curv, case.spec)
        failed = [c.name for c in report.checks if not c.passed]
        assert report.passed, failed

    def test_seed_ratio_target_from_constants(self, pipeline):
        """Seed-ratio target 1/(sqrt(d_i)(1+beta^2)) = 0.3849002 for the
        (2,3) product: computed from the problem parameters, not hard-coded."""
        case = pipeline("d2_3")
        report = verify.run_suite(case.traj, case.profile, case.curv, case.spec)
        check = next(c for c in report.checks if c.name == "seed_ratio")
        target = 1.0 / (math.sqrt(3) * 1.5)
        assert target == pytest.approx(0.3849002, abs=1e-7)
        assert check.details["limits"][0] == pytest.approx(target, abs=1e-3)

    def test_diagnostics_reported(self, pipeline):
        case = pipeline("d2_3")
        report = verify.run_suite(case.traj, case.profile, case.curv, case.spec)
        d = report.diagnostics
        assert d["kappa"] == pytest.approx(-1.0, abs=1e-6)
        assert math.isfinite(d["rho_estimate"])
        assert math.isfinite(d["u0_product_formula"])
        assert all(math.isfinite(q) for q in d["Q_limits"])
        assert d["L_scaled_limit"] > 0  # e^{-2 b^2 s} L / C, finite and positive

    @pytest.mark.parametrize("name, windows", [("d2", 2), ("d2_3", 3), ("d2_2_3", 3)])
    def test_one_dense_evaluation_per_window(self, pipeline, monkeypatch, name,
                                             windows):
        """Each seed-end window is evaluated once, and the fits from its
        shared arrays equal fit_exponent's on the same window."""
        case = pipeline(name)
        window_states = verify._window_states
        calls = []

        def counted(traj, lo, hi, n=250):
            calls.append((lo, hi))
            return window_states(traj, lo, hi, n)

        monkeypatch.setattr(verify, "_window_states", counted)
        report = verify.run_suite(case.traj, case.profile, case.curv, case.spec)
        assert len(calls) == len(set(calls)) == windows
        lo_g, hi_g = calls[-1]
        d = report.diagnostics
        assert d["L_exponent"] == verify.fit_exponent(
            case.traj, lambda X, Y, L: np.log(-L), lo_g, hi_g)
        for i, expo in enumerate(d.get("Y_exponents", []), start=1):
            assert expo == verify.fit_exponent(
                case.traj, lambda X, Y, L: np.log(Y[:, i]), lo_g, hi_g)

    def test_ricci_flat_mode_rejected(self, pipeline):
        case = pipeline("rf_d2_3")
        with pytest.raises(IncompleteInputs):
            verify.run_suite(case.traj, case.profile, case.curv, case.spec)

    def test_missing_inputs_rejected(self, pipeline):
        case = pipeline("d2")
        with pytest.raises(IncompleteInputs):
            verify.run_suite(case.traj, None, case.curv, case.spec)

    def test_fault_injection_localizes(self, pipeline):
        """A corrupted sample mid-trajectory must fail named checks, not
        crash the suite."""
        case = pipeline("d2_3")
        traj = case.traj
        k = len(traj.s) // 2
        Y = traj.Y.copy()
        Y[k, 1] += 0.05
        X = traj.X.copy()
        L = np.einsum("ij,ij->i", X, X) + np.einsum("ij,ij->i", Y, Y) - 1.0
        H = X @ np.sqrt(case.spec.dims)
        corrupted = dataclasses.replace(traj, Y=Y, L=L, H=H)
        report = verify.run_suite(corrupted, case.profile, case.curv, case.spec)
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert "lyapunov_monotone" in failed
        assert not [c.name for c in report.checks if c.passed and c.measured > c.tolerance]

    def test_report_serializes(self, pipeline):
        import json

        case = pipeline("d2")
        report = verify.run_suite(case.traj, case.profile, case.curv, case.spec)
        text = json.dumps(report.to_dict())
        assert '"passed": true' in text

    def test_summary_lines_one_per_check(self, pipeline):
        case = pipeline("d2")
        report = verify.run_suite(case.traj, case.profile, case.curv, case.spec)
        lines = report.summary_lines()
        assert len(lines) == len(report.checks)
        assert all(line.startswith("[PASS]") for line in lines)


class TestPassRule:
    """Every check passes iff measured <= tolerance and its side condition
    holds; measured is oriented so that smaller is better."""

    def test_passed_is_derived_not_given(self):
        assert verify.Check("c", "", measured=1.0, tolerance=1.0).passed
        assert not verify.Check("c", "", measured=1.0, tolerance=0.5).passed
        assert not verify.Check("c", "", measured=0.0, tolerance=1.0,
                                requires=False).passed
        assert not verify.Check("c", "", measured=math.nan, tolerance=1.0).passed
        with pytest.raises(TypeError):
            verify.Check("c", "", measured=0.0, tolerance=1.0, passed=True)

    @pytest.mark.parametrize("name", SOLITON_CASES)
    def test_no_pass_above_tolerance(self, pipeline, name):
        case = pipeline(name)
        report = verify.run_suite(case.traj, case.profile, case.curv, case.spec)
        assert report.passed
        assert all(c.measured <= c.tolerance for c in report.checks)

    def test_ricci_measured_is_minus_min_ricci(self, pipeline):
        case = pipeline("d2_3")
        ric_factor = case.curv.ric_factor.copy()
        ric_factor[len(ric_factor) // 2, 1] = -1e-6
        curv = dataclasses.replace(case.curv, ric_factor=ric_factor)
        report = verify.run_suite(case.traj, case.profile, curv, case.spec)
        check = next(c for c in report.checks if c.name == "ricci_nonnegative")
        assert check.measured == 1e-6
        assert not check.passed

    @pytest.mark.parametrize("field", ["ric_tt", "ric_factor"])
    def test_nan_ricci_fails(self, pipeline, field):
        case = pipeline("d2_3")
        values = getattr(case.curv, field).copy()
        values[len(values) // 2] = math.nan
        curv = dataclasses.replace(case.curv, **{field: values})
        report = verify.run_suite(case.traj, case.profile, curv, case.spec)
        check = next(c for c in report.checks if c.name == "ricci_nonnegative")
        assert not check.passed

    @pytest.mark.parametrize("part", ["terminal_norm", "kappa_plus_one"])
    def test_nan_in_either_part_fails_origin_limit(self, pipeline, part):
        """max(1e-9, nan) is 1e-9: a NaN part must not vanish into the max."""
        case = pipeline("d2_3")
        traj = case.traj
        if part == "terminal_norm":
            X = traj.X.copy()
            X[-1, 0] = math.nan
            traj = dataclasses.replace(traj, X=X)
        else:
            L = traj.L.copy()
            L[-1] = math.nan
            traj = dataclasses.replace(traj, L=L)
        report = verify.run_suite(traj, case.profile, case.curv, case.spec)
        check = next(c for c in report.checks if c.name == "origin_limit")
        assert math.isnan(check.details[part])
        assert not check.passed

    @pytest.mark.parametrize("field", ["g", "g_dot"])
    def test_nan_in_either_part_fails_collapse_g1(self, pipeline, field):
        case = pipeline("d2_3")
        values = getattr(case.profile, field).copy()
        values[:, 0] = math.nan
        profile = dataclasses.replace(case.profile, **{field: values})
        _, checks = verify.boundary_checks(profile)
        check = next(c for c in checks if c.name == "collapse_g1")
        assert not check.passed

    @pytest.mark.parametrize("values, errors, passed", [
        ([1.0, 1.6, 3.0], [0.25, 0.25, 0.25], True),
        ([1.0, 1.5, 3.0], [0.25, 0.25, 0.25], False),   # a pair just touches
        ([1.0, 1.6, 3.0], [0.25, math.nan, 0.25], False),
    ])
    def test_distinct_check_is_strict(self, values, errors, passed):
        """Two g_i(0) values are distinct iff they differ by more than the
        sum of their error estimates, like sweep's pairwise test."""
        assert verify.distinct_check(values, errors).passed is passed


class TestBoundaryChecks:
    def test_parity_rule(self, pipeline):
        """g_1 is odd about t = 0 and g_2 even, so g_1' and g_2 are fitted
        in t^2 and g_1, g_2' in t."""
        case = pipeline("d2_3")
        prof = case.profile
        boundary, _ = verify.boundary_checks(prof)
        idx = verify._boundary_nodes(prof.t, 5)
        t = prof.t[idx]

        def fit(values, parity):
            return verify.richardson_extrapolate(
                list(zip(t, values)), order=len(t) - 1, parity=parity)[0]

        assert boundary["g_0"] == [fit(prof.g[idx, 0], "none"),
                                   fit(prof.g[idx, 1], "even")]
        assert boundary["g_dot_0"] == [fit(prof.g_dot[idx, 0], "even"),
                                       fit(prof.g_dot[idx, 1], "none")]
        assert boundary["u_dot_0"] == fit(prof.u_dot[idx], "none")
        assert boundary["u_ddot_0"] == fit(prof.u_ddot[idx], "even")
