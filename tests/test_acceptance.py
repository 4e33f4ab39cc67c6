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
from solitonforge import cli, phase

from conftest import RICCI_FLAT_CASES, SOLITON_CASES, make_spec

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_criterion_01_fixed_point_and_spectrum(pipeline):
    """Critical point is a zero of the field (<= 1e-14) and the spectrum is
    {beta^2 x (r-1), (beta^2-1) x r, 2 beta^2} to 1e-10, for d1 in
    {2,3,4,9} and r in {1,2,3}; verify's spectrum check holds on every
    shipped soliton spec."""
    extras = {1: (), 2: ((3, 2.0),), 3: ((3, 2.0), (4, 1.5))}
    for d1 in (2, 3, 4, 9):
        for r in (1, 2, 3):
            factors = (sf.FactorSpec(d1, d1 - 1.0),) + tuple(
                sf.FactorSpec(d, lam) for d, lam in extras[r]
            )
            coeffs = (-1e-4,) + (1e-4,) * (r - 1)
            spec = sf.ProblemSpec(factors=factors, seed_coeffs=coeffs)
            y = sf.critical_point(spec)
            sqrt_d = np.sqrt(spec.dims)
            assert np.abs(phase.rhs(y, sqrt_d)).max() <= 1e-14
            b2 = sf.constants(spec).beta ** 2
            expected = np.sort([b2 - 1.0] * r + [b2] * (r - 1) + [2 * b2])
            numeric = np.sort(np.linalg.eigvals(phase.rhs_jacobian(y, sqrt_d)).real)
            assert np.abs(numeric - expected).max() <= 1e-10
    for name in SOLITON_CASES:
        check = _check(pipeline(name).report, "spectrum")
        assert check.passed and check.tolerance == 1e-10


@pytest.mark.parametrize("name", SOLITON_CASES)
def test_criterion_02_lyapunov_and_conservation(pipeline, name):
    """L strictly decreasing in (-1, 0), terminal -1 +/- 1e-6 with
    ||(X,Y)|| <= 1e-6; the identity L' = 2 L sum X^2 holds pointwise to
    1e-12, here on every (len // 200)-th sample and in verify's
    lyapunov_identity check."""
    case = pipeline(name)
    traj = case.traj
    assert np.all(np.diff(traj.L) <= 1e-13 * (1.0 + np.abs(traj.L[:-1])))
    assert traj.L[0] < 0 and traj.L.min() > -1.0 - 1e-9
    assert abs(traj.L[-1] + 1.0) <= 1e-6
    y_end = np.concatenate([traj.X[-1], traj.Y[-1]])
    assert np.sqrt(y_end @ y_end) <= 1e-6
    step = max(1, len(traj.s) // 200)
    X, Y, L = traj.X[::step], traj.Y[::step], traj.L[::step]
    f = phase.rhs(np.hstack([X, Y]), np.sqrt(case.spec.dims))
    r = case.spec.r
    dL = 2.0 * (np.einsum("ij,ij->i", X, f[:, :r]) + np.einsum("ij,ij->i", Y, f[:, r:]))
    res = np.abs(dL - 2.0 * L * np.einsum("ij,ij->i", X, X))
    assert np.all(res <= 1e-12 * (1.0 + np.abs(L)))
    check = _check(pipeline(name).report, "lyapunov_identity")
    assert check.passed and check.tolerance == 1e-12


@pytest.mark.parametrize("name", SOLITON_CASES)
def test_criterion_03_soliton_pde_residual(pipeline, name):
    """max |Ric + Hess u| <= 1e-6 for every shipped soliton spec."""
    assert pipeline(name).curv.soliton_residual_max <= 1e-6


@pytest.mark.parametrize("name", SOLITON_CASES)
def test_criterion_04_oracle_equivalence(pipeline, name):
    """Second-order integration over the oracle's window (oracle.window:
    from t0 = 10 t[0], two decades or to the profile's end) matches the
    phase-space reconstruction to 1e-6 relative; conservation drift
    <= 1e-8."""
    case = pipeline(name)
    assert case.oracle_run.conservation_drift() <= 1e-8
    assert max(case.oracle_deviations.values()) <= 1e-6


@pytest.mark.parametrize("name", SOLITON_CASES)
def test_criterion_05_both_end_limits(pipeline, name):
    """X_i/Y_i^2 -> 1/sqrt(d_i) at the origin (1e-4) and
    1/(sqrt(d_i)(1+beta^2)) at the seed end (1e-3, i > 1); decay exponents
    within 5%."""
    report = pipeline(name).report
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
    report = pipeline(name).report
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
    1/t (slope -1 +/- 0.1); R t^2 grows without bound: verify's checks,
    at these tolerances."""
    report = pipeline(name).report
    for check_name, tol in (("ricci_nonnegative", 1e-8), ("curvature_signs", 0.0),
                            ("curvature_decay", 0.1), ("scalar_decay", 0.1),
                            ("scalar_growth", 0.0)):
        check = _check(report, check_name)
        assert check.passed and check.tolerance == tol, check_name
    assert pipeline(name).curv.min_ricci() >= -1e-8


@pytest.mark.parametrize("name", SOLITON_CASES)
def test_criterion_08_paraboloid_asymptotics(pipeline, name):
    """g_i g_i' -> lambda_i/sqrt(-C) +/- 1e-3 and g_i^2/t -> 2 lambda_i /
    sqrt(-C) +/- 1e-2 relative: verify's checks, at these tolerances."""
    report = pipeline(name).report
    for check_name, tol in (("paraboloid_g_gdot", 1e-3),
                            ("paraboloid_g_sq_over_t", 1e-2)):
        check = _check(report, check_name)
        assert check.passed and check.tolerance == tol, check_name


@pytest.mark.parametrize("name", RICCI_FLAT_CASES)
def test_criterion_09_ricci_flat_mode(pipeline, name):
    """|L| and |H-1| <= 1e-8 throughout, Ricci components <= 1e-6, and the
    potential is trivial."""
    case = pipeline(name)
    assert np.abs(case.traj.L).max() <= 1e-8
    assert np.abs(case.traj.H - 1.0).max() <= 1e-8
    ric_tt, ric_factor = case.ricci
    assert np.abs(ric_tt).max() <= 1e-6
    assert np.abs(ric_factor).max() <= 1e-6
    assert np.abs(case.profile.u_dot).max() <= 1e-12


@pytest.mark.parametrize("name", SOLITON_CASES)
def test_criterion_10_inequality_ledger(pipeline, name):
    """H < 1, L + 1 - H < 0 (to a few ulps of H), and X_1 < beta at
    every sample."""
    report = pipeline(name).report
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
