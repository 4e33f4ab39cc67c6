"""The verification suite itself: extrapolation helpers and claim checks."""

import dataclasses
import math

import numpy as np
import pytest

import solitonforge as sf
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
