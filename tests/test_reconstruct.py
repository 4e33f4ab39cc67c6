"""Metric reconstruction: closed forms, quadratures, and identities."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import solitonforge as sf
from solitonforge import reconstruct
from solitonforge.errors import QuadratureFailure

from conftest import MULTI_FACTOR_CASES, RICCI_FLAT_CASES, SOLITON_CASES, make_spec

SINGLE_FACTOR_CASES = [k for k in SOLITON_CASES if k not in MULTI_FACTOR_CASES]


class TestConservationIdentity:
    @pytest.mark.parametrize("name", SOLITON_CASES)
    def test_L_equals_scaled_gY_squared(self, pipeline, name):
        """L = (C / (d_i lambda_i)) g_i^2 Y_i^2 for every factor and sample."""
        case = pipeline(name)
        prof, traj, spec = case.profile, case.traj, case.spec
        for i in range(spec.r):
            rhs = (spec.gauge_C / (spec.dims[i] * spec.lambdas[i])) * (
                prof.g[:, i] * traj.Y[:, i]
            ) ** 2
            assert np.abs(prof.L - rhs).max() <= 1e-8 * np.abs(prof.L).max()


class TestClosedForms:
    def test_g2_frozen_example(self):
        # C = -1, L = -0.5, d_2 = 3, lambda_2 = 2, Y_2 = 0.3
        g2 = math.sqrt(0.5) * math.sqrt(3 * 2) / 0.3
        assert g2 == pytest.approx(5.7735027, abs=1e-7)

    def test_g_formula_pointwise(self, pipeline):
        case = pipeline("d2_3")
        prof, traj, spec = case.profile, case.traj, case.spec
        for i in range(spec.r):
            expected = (
                np.sqrt(traj.L / spec.gauge_C)
                * math.sqrt(spec.dims[i] * spec.lambdas[i])
                / traj.Y[:, i]
            )
            assert prof.g[:, i] == pytest.approx(expected, rel=1e-12)

    def test_g_dot_formula_pointwise(self, pipeline):
        case = pipeline("d2_3")
        prof, traj, spec = case.profile, case.traj, case.spec
        for i in range(spec.r):
            expected = math.sqrt(spec.lambdas[i]) * traj.X[:, i] / traj.Y[:, i]
            assert prof.g_dot[:, i] == pytest.approx(expected, rel=1e-12)

    def test_g_dot_positive(self, pipeline):
        for name in SOLITON_CASES:
            g_dot = pipeline(name).profile.g_dot
            # At the seed the non-collapsing factors have g_dot exactly 0
            # (they are even functions of t); everywhere else g_dot > 0.
            assert np.all(g_dot[1:] > 0)
            assert np.all(g_dot[0] >= 0)
            assert g_dot[0, 0] > 0

    def test_g_dot_1_tends_to_one_at_seed(self, pipeline):
        prof = pipeline("d2").profile
        assert prof.g_dot[0, 0] == pytest.approx(1.0, abs=1e-3)

    def test_definition_consistency(self, pipeline):
        """The reconstruction inverts the phase-variable definitions:
        sqrt(d_i) (g_i'/g_i) / (-u' + tr L) = X_i and
        sqrt(d_i lambda_i) / (g_i (-u' + tr L)) = Y_i."""
        case = pipeline("d2_3")
        prof, traj, spec = case.profile, case.traj, case.spec
        w = -prof.u_dot + prof.tr_L()
        for i in range(spec.r):
            X_back = np.sqrt(spec.dims[i]) * (prof.g_dot[:, i] / prof.g[:, i]) / w
            Y_back = math.sqrt(spec.dims[i] * spec.lambdas[i]) / (prof.g[:, i] * w)
            assert np.abs(X_back - traj.X[:, i]).max() <= 1e-8
            assert np.abs(Y_back - traj.Y[:, i]).max() <= 1e-8


class TestArclength:
    def test_strictly_increasing(self, pipeline):
        for name in SOLITON_CASES:
            assert np.all(np.diff(pipeline(name).profile.t) > 0)

    def test_tail_estimate_matches_decay_law(self, pipeline):
        """t_0 = sqrt(L(s_0)/C) / beta^2, exact for L proportional to
        e^{2 beta^2 s}."""
        case = pipeline("d2")
        prof, traj, spec = case.profile, case.traj, case.spec
        b2 = sf.constants(spec).beta ** 2
        t0 = math.sqrt(traj.L[0] / spec.gauge_C) / b2
        assert prof.t[0] == pytest.approx(t0, rel=1e-12)

    def test_tolerance_halving_self_convergence(self):
        spec = make_spec("d2")
        fine_spec = dataclasses.replace(
            spec,
            step_controls=dataclasses.replace(
                spec.step_controls, rtol=1e-11, atol=1e-11
            ),
        )
        coarse = sf.build_profile(sf.run(spec), spec)
        fine = sf.build_profile(sf.run(fine_spec), fine_spec)
        # compare t at shared abscissae via interpolation in s
        t_interp = np.interp(coarse.s[: len(coarse.s) // 2],
                             fine.s, fine.t)
        ref = coarse.t[: len(coarse.s) // 2]
        assert np.abs(t_interp - ref).max() <= 1e-6 * np.abs(ref).max()


def _five_point_derivative(f, t):
    """df/dt at t[2:-2]: the derivative of the quartic through each sample
    and its two neighbours on either side, fourth order on any grid."""
    windows = sliding_window_view(t, 5)
    width = windows[:, -1:] - windows[:, :1]
    x = (windows - windows[:, 2:3]) / width      # offsets in window widths
    V = x[:, None, :] ** np.arange(5)[:, None]    # V[m, k, j] = x_j^k
    e1 = np.zeros((5, 1))
    e1[1] = 1.0
    # weights with sum_j w_j x_j^k = delta_k1, so sum_j w_j f_j = f'(centre)
    w = np.linalg.solve(V, np.broadcast_to(e1, V.shape[:2] + (1,)))[..., 0]
    return (w * sliding_window_view(f, 5)).sum(axis=1) / width[:, 0]


class TestThirdDerivative:
    def test_consistency_with_finite_differences(self, pipeline):
        """d(g_ddot)/dt from the closed form matches centered finite
        differences mid-trajectory."""
        case = pipeline("d2_3")
        prof = case.profile
        n = len(prof.t)
        sl = slice(n // 4, n // 2)
        t = prof.t[sl]
        for i in range(case.spec.r):
            gdd = prof.g_ddot[sl, i]
            fd = _five_point_derivative(gdd, t)
            formula = prof.g_dddot[sl, i][2:-2]
            mask = np.abs(formula) > 1e-12
            rel = np.abs(fd[mask] - formula[mask]) / np.abs(formula[mask])
            # a fourth-order stencil on samples about 7% of t apart;
            # the median keeps isolated artifacts out of the comparison
            assert np.median(rel) <= 1e-3

    def test_finite_at_both_ends(self, pipeline):
        for name in ("d2", "d2_3"):
            assert np.all(np.isfinite(pipeline(name).profile.g_dddot))


class TestPotential:
    def test_gauge_and_signs(self, pipeline):
        for name in SOLITON_CASES:
            prof = pipeline(name).profile
            assert prof.u[0] == 0.0
            assert np.all(prof.u_dot <= 0)
            # Deep in the tail u_ddot is O(Y^4) ~ 1e-32 while the slaved X
            # variables carry relative error ~1e-6, so its sign is not
            # resolvable there; allow a tiny positive noise floor.
            assert np.all(prof.u_ddot <= 1e-18)
            assert np.all(prof.u_ddot[np.abs(prof.u_ddot) > 1e-18] < 0)

    def test_u_dot_closed_form(self, pipeline):
        case = pipeline("d2_3")
        prof, traj, spec = case.profile, case.traj, case.spec
        w = np.sqrt(spec.gauge_C / traj.L)
        assert prof.u_dot == pytest.approx(w * (traj.H - 1.0), rel=1e-12)

    def test_u_prime_in_s_frozen_example(self):
        """u'(s) = H - 1; at d=(2,3), X=(0.2,0.1) this is -0.5439523."""
        H = math.sqrt(2) * 0.2 + math.sqrt(3) * 0.1
        assert H - 1.0 == pytest.approx(-0.5439523, abs=1e-7)

    def test_ricci_flat_potential_trivial(self, pipeline):
        prof = pipeline("rf_d2_3").profile
        assert np.abs(prof.u_dot).max() <= 1e-12
        assert np.abs(prof.u).max() <= 1e-10


def _t_rel_by_rule(traj, spec, points):
    """t - t[0] from a `points`-point Gauss-Legendre rule on every step,
    one step at a time (log w by a nested rule in Ricci-flat mode)."""
    x, wx = np.polynomial.legendre.leggauss(points)
    r = spec.r

    def sum_x2(s):
        X = traj.dense(s.ravel())[:r]
        return (X * X).sum(axis=0).reshape(s.shape)

    t_rel = np.zeros(traj.s.size)
    log_w = 0.0
    for k in range(traj.s.size - 1):
        a, b = traj.s[k], traj.s[k + 1]
        half = 0.5 * (b - a)
        nodes = a + half * (1.0 + x)
        if spec.mode is sf.Mode.RICCI_FLAT:
            sub_half = 0.5 * (nodes - a)
            sub_nodes = a + sub_half[:, None] * (1.0 + x)
            integrand = np.exp(-(log_w - sub_half * (sum_x2(sub_nodes) @ wx)))
            log_w -= half * (wx @ sum_x2(nodes))
        else:
            y = traj.dense(nodes)
            integrand = np.sqrt(((y * y).sum(axis=0) - 1.0) / spec.gauge_C)
        t_rel[k + 1] = t_rel[k] + half * (wx @ integrand)
    return t_rel


class TestCumulativeQuadrature:
    """t, u and log w against references that bypass reconstruct's
    quadrature, and its failure path."""

    @pytest.mark.parametrize("name", SINGLE_FACTOR_CASES)
    def test_soliton_u_log_identity(self, pipeline, name):
        """u' = H - 1 = (n/2)(log |L|)' - sum_i d_i (log Y_i)' - 1 along the
        flow, so u = (n/2) log(L/L_0) - sum_i d_i log(Y_i/Y_i0) - (s - s_0).
        Near the seed and the origin L or Y is resolved only to the flow's
        atol, so the samples compared have |L|, Y_i >= 1e-3."""
        case = pipeline(name)
        prof, traj, spec = case.profile, case.traj, case.spec
        n = spec.dims.sum()
        identity = (
            0.5 * n * np.log(traj.L / traj.L[0])
            - (spec.dims * np.log(traj.Y / traj.Y[0])).sum(axis=1)
            - (traj.s - traj.s[0])
        )
        mask = (np.abs(traj.L) >= 1e-3) & (traj.Y >= 1e-3).all(axis=1)
        assert mask.sum() >= 100
        err = np.abs(prof.u - identity)[mask]
        assert np.all(err <= 1e-6 * np.maximum(np.abs(prof.u[mask]), 1.0))

    @pytest.mark.parametrize("name", RICCI_FLAT_CASES)
    def test_ricci_flat_log_w_identity(self, pipeline, name):
        """With H = 1, sum_i d_i (log Y_i)' = n sum(X^2) - 1, so
        log w = -(sum_i d_i log(Y_i/Y_i0) + s - s_0) / n."""
        case = pipeline(name)
        prof, traj, spec = case.profile, case.traj, case.spec
        identity = -(
            (spec.dims * np.log(traj.Y / traj.Y[0])).sum(axis=1)
            + traj.s - traj.s[0]
        ) / spec.dims.sum()
        assert np.abs(np.log(prof.w) - identity).max() <= 1e-7

    @pytest.mark.parametrize("name", ["d2", "d2_2_3", "rf_d2_3"])
    def test_rule_converged(self, pipeline, name):
        """The shipped rule agrees with a 10-point rule on the same steps."""
        case = pipeline(name)
        prof = case.profile
        ref = prof.t[0] + _t_rel_by_rule(case.traj, case.spec, 10)
        assert np.all(np.abs(prof.t - ref) <= 1e-9 * prof.t)

    def test_non_finite_increment_raises(self, pipeline):
        case = pipeline("d2")
        traj = case.traj
        s_bad = traj.s[100]

        def dense(s):
            y = traj.dense(s)
            y[:, np.asarray(s) > s_bad] = np.nan
            return y

        broken = dataclasses.replace(traj, dense=dense)
        with pytest.raises(QuadratureFailure, match="not finite"):
            reconstruct.build_profile(broken, case.spec)
