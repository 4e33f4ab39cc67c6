"""End-to-end acceptance criteria.

Each test is one acceptance criterion at its stated tolerance; `pytest -v`
prints one pass/fail line per criterion.  Expensive pipeline runs are shared
through the session-scoped `pipeline` fixture.
"""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

import solitonforge as sf
from solitonforge import cli, geometry, oracle, phase, verify

from conftest import RICCI_FLAT_CASES, SOLITON_CASES, make_spec

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _report(case_name, pipeline):
    case = pipeline(case_name)
    return verify.run_suite(case.traj, case.profile, case.curv, case.spec)


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_criterion_01_fixed_point_and_spectrum():
    """Critical point is a zero of the field (<= 1e-14) and the spectrum is
    {beta^2 x (r-1), (beta^2-1) x r, 2 beta^2} to 1e-10, for d1 in
    {2,3,4,9} and r in {1,2,3}."""
    extras = {1: (), 2: ((3, 2.0),), 3: ((3, 2.0), (4, 1.5))}
    for d1 in (2, 3, 4, 9):
        for r in (1, 2, 3):
            factors = (sf.FactorSpec(d1, d1 - 1.0),) + tuple(
                sf.FactorSpec(d, lam) for d, lam in extras[r]
            )
            coeffs = (-1e-4,) + (1e-4,) * (r - 1)
            spec = sf.ProblemSpec(factors=factors, seed_coeffs=coeffs)
            p = sf.critical_point(spec)
            dX, dY = sf.vector_field(p, spec)
            assert max(np.abs(dX).max(), np.abs(dY).max()) <= 1e-14
            rep = phase.linearization(spec)
            b2 = sf.constants(spec).beta ** 2
            expected = np.sort([b2 - 1.0] * r + [b2] * (r - 1) + [2 * b2])
            numeric = np.sort(np.linalg.eigvals(rep.matrix).real)
            assert np.abs(numeric - expected).max() <= 1e-10
            assert np.abs(np.sort(rep.eigenvalues) - expected).max() <= 1e-10


@pytest.mark.parametrize("name", SOLITON_CASES)
def test_criterion_02_lyapunov_and_conservation(pipeline, name):
    """L strictly decreasing in (-1, 0), terminal -1 +/- 1e-6 with
    ||(X,Y)|| <= 1e-6; the identity L' = 2 L sum X^2 holds pointwise to
    1e-12."""
    case = pipeline(name)
    traj = case.traj
    assert np.all(np.diff(traj.L) <= 1e-13 * (1.0 + np.abs(traj.L[:-1])))
    assert traj.L[0] < 0 and traj.L.min() > -1.0 - 1e-9
    assert abs(traj.L[-1] + 1.0) <= 1e-6
    y_end = np.concatenate([traj.X[-1], traj.Y[-1]])
    assert np.sqrt(y_end @ y_end) <= 1e-6
    for k in range(0, len(traj.s), max(1, len(traj.s) // 200)):
        p = traj.point(k)
        res = phase.lyapunov_derivative_identity(p, case.spec)
        assert res <= 1e-12 * (1.0 + abs(traj.L[k]))


@pytest.mark.parametrize("name", SOLITON_CASES)
def test_criterion_03_soliton_pde_residual(pipeline, name):
    """max |Ric + Hess u| <= 1e-6 for every shipped soliton spec."""
    assert pipeline(name).curv.soliton_residual_max <= 1e-6


@pytest.mark.parametrize("name", SOLITON_CASES)
def test_criterion_04_oracle_equivalence(pipeline, name):
    """Second-order integration from t0 matches the phase-space
    reconstruction to 1e-6 relative over a decade; conservation drift
    <= 1e-8."""
    case = pipeline(name)
    prof = case.profile
    t0 = 10.0 * float(prof.t[0])
    state = oracle.init_from_profile(prof, t0)
    run = oracle.integrate_second_order(state, case.spec, 10.0 * t0)
    assert run.conservation_drift() <= 1e-8
    devs = oracle.compare_profiles(prof, run)
    assert max(devs.values()) <= 1e-6


@pytest.mark.parametrize("name", SOLITON_CASES)
def test_criterion_05_both_end_limits(pipeline, name):
    """X_i/Y_i^2 -> 1/sqrt(d_i) at the origin (1e-4) and
    1/(sqrt(d_i)(1+beta^2)) at the seed end (1e-3, i > 1); decay exponents
    within 5%."""
    report = _report(name, pipeline)
    assert _check(report, "origin_ratio").passed
    if pipeline(name).spec.r > 1:
        assert _check(report, "seed_ratio").passed
        assert _check(report, "Y_decay_rate").passed
    b2 = sf.constants(pipeline(name).spec).beta ** 2
    assert report.diagnostics["L_exponent"] == pytest.approx(2 * b2, rel=0.05)


@pytest.mark.parametrize("name", SOLITON_CASES)
def test_criterion_06_smooth_collapse(pipeline, name):
    """g1(0) = 0 +/- 1e-3, g1'(0) = 1 +/- 1e-3, g_i'(0) = 0 +/- 1e-3 with
    g_i(0) > 0 (i > 1), u'(0) = 0 +/- 1e-3, u''(0) and g_i''(0) finite."""
    report = _report(name, pipeline)
    assert _check(report, "collapse_g1").passed
    assert _check(report, "potential_boundary_derivatives").passed
    boundary = report.diagnostics["boundary"]
    assert all(math.isfinite(v) for v in boundary["g_ddot_0"])
    assert math.isfinite(boundary["u_ddot_0"])
    if pipeline(name).spec.r > 1:
        assert _check(report, "noncollapsing_factors").passed


@pytest.mark.parametrize("name", SOLITON_CASES)
def test_criterion_07_curvature_signs_and_decay(pipeline, name):
    """Nonnegative Ricci (>= -1e-8); negative cross curvature at large t for
    r >= 2; all sectional values positive for r = 1; |K| and R decay like
    1/t (slope -1 +/- 0.1); R t^2 grows without bound."""
    case = pipeline(name)
    assert case.curv.min_ricci() >= -1e-8
    r = case.spec.r
    if r >= 2:
        large_t = case.curv.t >= 100.0 * case.curv.t[0]
        mask = ~np.eye(r, dtype=bool)
        assert case.curv.sectional_cross[large_t][:, mask].max() < 0
    else:
        mid = case.curv.t <= case.curv.t[len(case.curv.t) // 2]
        assert case.curv.sectional_mixed_t[mid].min() > 0
        assert case.curv.sectional_within[mid].min() > 0
        assert case.curv.sectional_mixed_t.min() >= -1e-8
        assert case.curv.sectional_within.min() >= -1e-8
    a = geometry.asymptotics(case.profile, case.curv)
    assert a.curvature_slope == pytest.approx(-1.0, abs=0.1)
    assert a.scalar_slope == pytest.approx(-1.0, abs=0.1)
    assert np.all(np.diff(a.R_t2_ladder) > 0)
    assert a.R_t2_ladder[-1] / a.R_t2_ladder[0] > 10.0


@pytest.mark.parametrize("name", SOLITON_CASES)
def test_criterion_08_paraboloid_asymptotics(pipeline, name):
    """g_i g_i' -> lambda_i/sqrt(-C) +/- 1e-3 and g_i^2/t -> 2 lambda_i /
    sqrt(-C) +/- 1e-2 relative."""
    case = pipeline(name)
    a = geometry.asymptotics(case.profile, case.curv)
    lam = case.spec.lambdas
    root_c = math.sqrt(-case.spec.gauge_C)
    assert np.abs(a.g_gdot_limit - lam / root_c).max() <= 1e-3
    rel = np.abs(a.g_sq_over_t_limit - 2 * lam / root_c) / (2 * lam / root_c)
    assert rel.max() <= 1e-2


@pytest.mark.parametrize("name", RICCI_FLAT_CASES)
def test_criterion_09_ricci_flat_mode(pipeline, name):
    """|L| and |H-1| <= 1e-8 throughout, Ricci components <= 1e-6, and the
    potential is trivial."""
    case = pipeline(name)
    assert np.abs(case.traj.L).max() <= 1e-8
    assert np.abs(case.traj.H - 1.0).max() <= 1e-8
    ric_tt, ric_factor = geometry.ricci_components(case.profile, case.spec)
    assert np.abs(ric_tt).max() <= 1e-6
    assert np.abs(ric_factor).max() <= 1e-6
    assert np.abs(case.profile.u_dot).max() <= 1e-12


@pytest.mark.parametrize("name", SOLITON_CASES)
def test_criterion_10_inequality_ledger(pipeline, name):
    """H < 1, L + 1 - H < 0 (within the tail resolution floor), and
    X_1 < beta at every sample."""
    report = _report(name, pipeline)
    assert _check(report, "inequality_ledger").passed
    assert _check(report, "x1_below_beta").passed
    case = pipeline(name)
    assert case.traj.X[:, 0].max() < sf.constants(case.spec).beta
    assert case.traj.H.max() < 1.0


def test_criterion_11_family_distinctness(tmp_path):
    """5 sweep points over eps_2/|eps_0| yield pairwise distinct g_2(0)
    extrapolations beyond their combined error estimates."""
    path = os.path.join(CONFIG_DIR, "sweep_d2_3.json")
    code = cli.main(["sweep", "--config", path, "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "sweep_report.json").read_text())
    points = report["points"]
    assert len(points) == 5
    idx = report["coeff_index"]
    for a in range(5):
        for b in range(a + 1, 5):
            ga, gb = points[a]["g_0"][idx], points[b]["g_0"][idx]
            ea, eb = points[a]["g_0_err"][idx], points[b]["g_0_err"][idx]
            assert abs(ga - gb) > ea + eb
