"""The verification suite itself: extrapolation helpers and claim checks."""

import dataclasses
import math

import numpy as np
import pytest

import solitonforge as sf
from conftest import SOLITON_CASES
from solitonforge import geometry, phase, reconstruct, verify
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
        shared arrays equal a fit of log(-L) and log Y_i against s on a
        fresh evaluation of the same window."""
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
        s, X, Y, L = window_states(case.traj, lo_g, hi_g)
        assert d["L_exponent"] == float(np.polyfit(s, np.log(-L), 1)[0])
        for i, expo in enumerate(d.get("Y_exponents", []), start=1):
            assert expo == float(np.polyfit(s, np.log(Y[:, i]), 1)[0])

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

    @staticmethod
    def _last_X1_moved(case, X1):
        """The trajectory with X_1 at the last sample set to X1, and L and H
        recomputed from the states."""
        traj = case.traj
        X = traj.X.copy()
        X[-1, 0] = X1
        L = np.einsum("ij,ij->i", X, X) + np.einsum("ij,ij->i", traj.Y, traj.Y) - 1.0
        H = X @ np.sqrt(case.spec.dims)
        return dataclasses.replace(traj, X=X, L=L, H=H)

    def test_ledger_resolves_the_last_sample(self, pipeline):
        """L + 1 - H = +1e-6 |y|^2 at the last sample, positive though far
        below |y|^2, fails inequality_ledger."""
        case = pipeline("d2")
        traj = case.traj
        x, y = traj.X[-1, 0], traj.Y[-1, 0]
        # L + 1 - H = X_1^2 + Y_1^2 - sqrt(d_1) X_1 = 1e-6 (x^2 + y^2) at
        # the small root X_1, in the form without cancellation
        sd = math.sqrt(case.spec.dims[0])
        c = x * x + y * y
        q = y * y - 1e-6 * c
        moved = self._last_X1_moved(case, 2.0 * q / (sd + math.sqrt(sd * sd - 4.0 * q)))
        lh = moved.X[-1] @ moved.X[-1] + moved.Y[-1] @ moved.Y[-1] - moved.H[-1]
        assert lh == pytest.approx(1e-6 * c, rel=1e-3, abs=0.0)
        report = verify.run_suite(moved, case.profile, case.curv, case.spec)
        check = next(c for c in report.checks if c.name == "inequality_ledger")
        assert not check.passed
        assert check.details["L_plus_1_minus_H_max"] == lh

    def test_origin_ratio_reads_the_last_sample(self, pipeline):
        """X_1 / Y_1^2 = 1.001 / sqrt(d_1) at the last sample fails
        origin_ratio, which reads that sample."""
        case = pipeline("d2")
        y = case.traj.Y[-1, 0]
        moved = self._last_X1_moved(case, 1.001 * y * y / math.sqrt(case.spec.dims[0]))
        report = verify.run_suite(moved, case.profile, case.curv, case.spec)
        check = next(c for c in report.checks if c.name == "origin_ratio")
        assert not check.passed
        assert check.details["sample_s"] == case.traj.s[-1]

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
    def test_nan_in_either_part_fails_collapse_g1(self, pipeline, monkeypatch, field):
        """A NaN g_1 or g_1' at the Richardson nodes fails collapse_g1."""
        case = pipeline("d2_3")
        fields_at_t = reconstruct.fields_at_t

        def planted(traj, profile, t):
            fields = fields_at_t(traj, profile, t)
            fields[field][:, 0] = math.nan
            return fields

        monkeypatch.setattr(reconstruct, "fields_at_t", planted)
        _, checks = verify.boundary_checks(case.traj, case.profile)
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


def _tail_checks(case, asym=None, curv=None):
    """verify.tail_checks on a pipeline case, with the fits or the
    curvature report replaced; a name -> Check mapping."""
    curv = curv or case.curv
    asym = asym or geometry.asymptotics(case.profile, case.curv)
    return {c.name: c for c in verify.tail_checks(asym, curv, case.spec)}


def _replace_at(values, index, value):
    values = values.copy()
    values[index] = value
    return values


class TestTailChecks:
    """Each tail check fails on its own planted fault, and on a NaN."""

    @pytest.mark.parametrize("field, change, failed", [
        ("g_gdot_limit", lambda v: v + 2e-3, "paraboloid_g_gdot"),
        ("g_gdot_limit", lambda v: v * math.nan, "paraboloid_g_gdot"),
        ("g_sq_over_t_limit", lambda v: v * 1.02, "paraboloid_g_sq_over_t"),
        ("g_sq_exponent", lambda v: v + 0.06, "g_sq_exponent"),
        ("curvature_slope", lambda v: v - 0.11, "curvature_decay"),
        ("curvature_slope", lambda v: math.nan, "curvature_decay"),
        ("scalar_slope", lambda v: v + 0.11, "scalar_decay"),
        ("R_t2_ladder", lambda v: _replace_at(v, 5, v[4]), "scalar_growth"),
        ("R_t2_ladder", lambda v: _replace_at(v, 0, v[-1] / 9.0), "scalar_growth"),
        ("R_t2_ladder", lambda v: -v[::-1], "scalar_growth"),
        ("R_t2_ladder", lambda v: _replace_at(v, 3, math.nan), "scalar_growth"),
    ])
    def test_planted_fit_fails_its_check(self, pipeline, field, change, failed):
        case = pipeline("d2_3")
        asym = geometry.asymptotics(case.profile, case.curv)
        asym = dataclasses.replace(asym, **{field: change(getattr(asym, field))})
        checks = _tail_checks(case, asym=asym)
        assert [n for n, c in checks.items() if not c.passed] == [failed]

    @pytest.mark.parametrize("name, field, index, value", [
        # r > 1: one plane across two factors with K >= 0 at large t
        ("d2_3", "sectional_cross", (-1, 0, 1), 0.0),
        ("d2_3", "sectional_cross", (-1, 1, 0), math.nan),
        # r = 1: K <= 0 on the first half, or below -1e-8 after it
        ("d2", "sectional_mixed_t", (10, 0), 0.0),
        ("d2", "sectional_within", (-1, 0), -2e-8),
        ("d2", "sectional_within", (10, 0), math.nan),
    ])
    def test_planted_sign_fails_curvature_signs(self, pipeline, name, field, index,
                                                value):
        case = pipeline(name)
        curv = dataclasses.replace(case.curv, **{
            field: _replace_at(getattr(case.curv, field), index, value)})
        checks = _tail_checks(case, curv=curv)
        assert [n for n, c in checks.items() if not c.passed] == ["curvature_signs"]

    @pytest.mark.parametrize("gap", [2e-6, math.nan])
    def test_scalar_gap_fails_scalar_two_routes(self, pipeline, gap):
        case = pipeline("d2_3")
        scale = np.abs(case.curv.scalar_R).max()
        curv = dataclasses.replace(case.curv, scalar_R_gap=gap * scale)
        checks = _tail_checks(case, curv=curv)
        assert [n for n, c in checks.items() if not c.passed] == ["scalar_two_routes"]


class TestPhaseChecks:
    def test_shifted_jacobian_fails_spectrum(self, pipeline, monkeypatch):
        """The spectrum check reads the eigenvalues of phase.rhs_jacobian at
        the critical point: shifted by 1e-9, they fail it, and only it."""
        case = pipeline("d2_3")
        jacobian = phase.rhs_jacobian
        monkeypatch.setattr(phase, "rhs_jacobian",
                            lambda y, sqrt_d: jacobian(y, sqrt_d) + 1e-9 * np.eye(y.size))
        report = verify.run_suite(case.traj, case.profile, case.curv, case.spec)
        assert [c.name for c in report.checks if not c.passed] == ["spectrum"]

    def test_identity_fails_on_an_inconsistent_L(self, pipeline):
        """L is a function of the state, so an L moved off it by 1e-9 fails
        the identity (the first sample is always among the at most 200
        strided ones)."""
        case = pipeline("d2_3")
        traj = case.traj
        L = traj.L.copy()
        L[::7] += 1e-9
        report = verify.run_suite(dataclasses.replace(traj, L=L), case.profile,
                                  case.curv, case.spec)
        check = next(c for c in report.checks if c.name == "lyapunov_identity")
        assert not check.passed
        assert 100 < check.details["samples"] <= 200


    def test_identity_takes_one_field_evaluation(self, pipeline, monkeypatch):
        """The spectrum and the identity share one phase.rhs call, on a
        stack of the critical point and the strided samples."""
        case = pipeline("d2_3")
        rhs = phase.rhs
        shapes = []

        def counted(y, sqrt_d):
            shapes.append(y.shape)
            return rhs(y, sqrt_d)

        monkeypatch.setattr(phase, "rhs", counted)
        report = verify.run_suite(case.traj, case.profile, case.curv, case.spec)
        [shape] = shapes
        check = next(c for c in report.checks if c.name == "lyapunov_identity")
        assert shape == (1 + check.details["samples"], 2 * case.spec.r)


class TestSlowManifoldOffset:
    @pytest.mark.parametrize("name", ["d2", "d2_3", "d2_2_3"])
    def test_switch_state_on_the_graph(self, pipeline, name):
        """The state where the tail starts is the Radau segment's last one,
        and it lies on the graph to roundoff."""
        case = pipeline(name)
        report = verify.run_suite(case.traj, case.profile, case.curv, case.spec)
        [check] = [c for c in report.checks if c.name == "slow_manifold_offset"]
        assert check.passed and check.measured <= 1e-15
        assert check.details["switch_s"] == case.traj.segments[0].ts[-1]

    def test_displaced_switch_state_fails(self, pipeline):
        """The switch state moved off the graph by 1e-9 fails the check, and
        only it."""
        case = pipeline("d2_3")
        traj = case.traj
        k = traj.segments[0].steps
        X = traj.X.copy()
        X[k, 1] += 1e-9
        report = verify.run_suite(dataclasses.replace(traj, X=X), case.profile,
                                  case.curv, case.spec)
        assert [c.name for c in report.checks if not c.passed] == ["slow_manifold_offset"]
        [check] = [c for c in report.checks if c.name == "slow_manifold_offset"]
        assert check.measured == pytest.approx(1e-9, rel=1e-6)

    def test_no_tail_no_check(self, pipeline):
        """A run that never reaches the tail has no switch state to check."""
        case = pipeline("d2")
        traj = dataclasses.replace(case.traj, segments=case.traj.segments[:1])
        report = verify.run_suite(traj, case.profile, case.curv, case.spec)
        assert "slow_manifold_offset" not in [c.name for c in report.checks]


class TestBoundaryChecks:
    def test_parity_rule(self, pipeline):
        """g_1 is odd about t = 0 and g_2 even, so g_1' and g_2 are fitted
        in t^2 and g_1, g_2' in t, each through the fields at the five
        Richardson nodes."""
        case = pipeline("d2_3")
        prof = case.profile
        boundary, _ = verify.boundary_checks(case.traj, prof)
        t = verify._boundary_nodes(prof)
        assert t.size == 5
        fields = reconstruct.fields_at_t(case.traj, prof, t)

        def fit(values, parity):
            return verify.richardson_extrapolate(
                list(zip(t, values)), order=len(t) - 1, parity=parity)[0]

        assert boundary["g_0"] == [fit(fields["g"][:, 0], "none"),
                                   fit(fields["g"][:, 1], "even")]
        assert boundary["g_dot_0"] == [fit(fields["g_dot"][:, 0], "even"),
                                       fit(fields["g_dot"][:, 1], "none")]
        assert boundary["u_dot_0"] == fit(fields["u_dot"], "none")
        assert boundary["u_ddot_0"] == fit(fields["u_ddot"], "even")

    def test_nodes_are_exact_times(self, pipeline):
        """The Richardson nodes are t_min 1.6^k, k = 0..4, wherever the
        samples fall; the first is the first sample's."""
        prof = pipeline("d2_2_3").profile
        t = verify._boundary_nodes(prof)
        assert np.array_equal(t, prof.t[0] * 1.6 ** np.arange(5))
        assert not np.isin(t[1:], prof.t).any()
