"""Metric reconstruction: closed forms, quadratures, and identities."""

import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import solitonforge as sf
from solitonforge import flow, reconstruct
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
            assert prof.g[:, i] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_g_dot_formula_pointwise(self, pipeline):
        case = pipeline("d2_3")
        prof, traj, spec = case.profile, case.traj, case.spec
        for i in range(spec.r):
            expected = math.sqrt(spec.lambdas[i]) * traj.X[:, i] / traj.Y[:, i]
            assert prof.g_dot[:, i] == pytest.approx(expected, rel=1e-12, abs=0.0)

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
        assert prof.t[0] == pytest.approx(t0, rel=1e-12, abs=0.0)

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
        differences mid-trajectory, on the dense trajectory."""
        case = pipeline("d2_3")
        prof = case.profile
        n = len(prof.t)
        # 200 times about 5% of t apart between the samples n/4 and n/2,
        # whatever the step sizes
        t = np.geomspace(prof.t[n // 4], prof.t[n // 2], 200)
        fields = reconstruct.fields_at_t(case.traj, prof, t)
        for i in range(case.spec.r):
            gdd = fields["g_ddot"][:, i]
            fd = _five_point_derivative(gdd, t)
            formula = fields["g_dddot"][2:-2, i]
            mask = np.abs(formula) > 1e-12
            rel = np.abs(fd[mask] - formula[mask]) / np.abs(formula[mask])
            # a fourth-order stencil; the median keeps isolated artifacts
            # out of the comparison
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
        assert prof.u_dot == pytest.approx(w * (traj.H - 1.0), rel=1e-12, abs=0.0)

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


def _cumulative_by_abscissae(traj, spec):
    """reconstruct._cumulative with every Gauss-Legendre node (and, in
    Ricci-flat mode, every node of the nested rule on [s_k, node]) placed
    at its absolute abscissa and evaluated through traj.dense, which
    finds each node's step again."""
    x, wx = np.polynomial.legendre.leggauss(6)
    q, r, m = x.size, spec.r, traj.s.size - 1
    sqrt_d = np.sqrt(spec.dims)
    s_k = traj.s[:-1, None]
    half = 0.5 * np.diff(traj.s)[:, None]
    nodes = s_k + half * (1.0 + x)
    weights = half * wx
    ricci_flat = spec.mode is sf.Mode.RICCI_FLAT
    abscissae = [nodes.ravel()]
    if ricci_flat:
        sub_half = 0.5 * (nodes - s_k)[:, :, None]
        abscissae.append((s_k[:, :, None] + sub_half * (1.0 + x)).ravel())
    y = traj.dense(np.concatenate(abscissae))
    X, Y = y[:r], y[r:]
    sx2 = (X * X).sum(axis=0)
    du = (weights * (sqrt_d @ X[:, :m * q] - 1.0).reshape(m, q)).sum(axis=1)
    if ricci_flat:
        dlog_w = -(weights * sx2[:m * q].reshape(m, q)).sum(axis=1)
        log_w_k = np.concatenate([[0.0], np.cumsum(dlog_w)[:-1]])
        sub_sx2 = sx2[m * q:].reshape(m, q, q)
        node_log_w = log_w_k[:, None] - (sub_half * wx * sub_sx2).sum(axis=2)
        increments = [dlog_w, (weights * np.exp(-node_log_w)).sum(axis=1), du]
    else:
        ell = (sx2 + (Y * Y).sum(axis=0) - 1.0).reshape(m, q)
        increments = [(weights * np.sqrt(ell / spec.gauge_C)).sum(axis=1), du]
    cum = np.cumsum(np.column_stack(increments), axis=0)
    return np.vstack([np.zeros(len(increments)), cum])


class TestCumulativeQuadrature:
    """t, u and log w against references that bypass reconstruct's
    quadrature, and its failure path."""

    @pytest.mark.parametrize("name", SINGLE_FACTOR_CASES)
    def test_soliton_u_log_identity(self, pipeline, name):
        """u' = H - 1 = (n/2)(log |L|)' - sum_i d_i (log Y_i)' - 1 along the
        flow, so u = (n/2) log(L/L_0) - sum_i d_i log(Y_i/Y_i0) - (s - s_0).
        Near the seed and the origin L or Y is resolved only to the flow's
        atol, so the samples compared have |L|, Y_i >= 1e-3: every sample
        from the first such one through the switch to the tail, and the
        tail's over more than a decade and a half of s."""
        case = pipeline(name)
        prof, traj, spec = case.profile, case.traj, case.spec
        n = spec.dims.sum()
        identity = (
            0.5 * n * np.log(traj.L / traj.L[0])
            - (spec.dims * np.log(traj.Y / traj.Y[0])).sum(axis=1)
            - (traj.s - traj.s[0])
        )
        mask = (np.abs(traj.L) >= 1e-3) & (traj.Y >= 1e-3).all(axis=1)
        switch = traj.segments[0].steps
        assert mask[np.argmax(mask):switch + 1].all()
        assert traj.s[mask][-1] >= 50.0 * traj.s[switch]
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

    @pytest.mark.parametrize("name", ["d2_3", "rf_d2_2_3"])
    def test_nodes_read_by_fraction_match_abscissae(self, pipeline, name):
        """Each node read from its step's polynomial at a fixed fraction
        gives the cumulative columns that evaluating the dense output at
        the node's absolute abscissa gives."""
        case = pipeline(name)
        ref = _cumulative_by_abscissae(case.traj, case.spec)
        got = reconstruct._cumulative(case.traj, case.spec)
        assert got.shape == ref.shape
        for column in range(ref.shape[1]):
            a, b = got[:, column], ref[:, column]
            assert np.all(np.abs(a - b) <= 1e-10 * np.abs(b) + 1e-12)

    def test_non_finite_increment_raises(self, pipeline):
        """A Radau step whose polynomial is not finite fails the
        quadrature, and the message names that step."""
        case = pipeline("d2")
        traj = case.traj
        radau_segment = traj.segments[0]
        k = radau_segment.steps // 2
        Q = radau_segment.Q.copy()
        Q[k:] = np.nan
        broken = dataclasses.replace(traj, segments=[
            flow.RadauSegment(radau_segment.ts, radau_segment.samples, Q, radau_segment.nfev)]
            + traj.segments[1:])
        step = re.escape(f"[{traj.s[k]:.6g}, {traj.s[k + 1]:.6g}]")
        with pytest.raises(QuadratureFailure, match="not finite on the step " + step):
            reconstruct.build_profile(broken, case.spec)


class TestFieldsAtT:
    """The closed-form fields placed at given times on the dense
    trajectory."""

    @pytest.mark.parametrize("name", ["d2_3", "rf_d2_3"])
    def test_sample_times_give_the_samples(self, pipeline, name):
        """At the samples' own times the fields are the profile's there, to
        roundoff (in Ricci-flat mode u' and u'' are themselves roundoff)."""
        case = pipeline(name)
        prof = case.profile
        k = np.arange(0, prof.t.size - 1, 5)
        fields = reconstruct.fields_at_t(case.traj, prof, prof.t[k])
        for field in ("g", "g_dot", "g_ddot", "g_dddot", "u_dot", "u_ddot"):
            got, expected = fields[field], getattr(prof, field)[k]
            assert got.shape == expected.shape
            scale = max(np.abs(expected).max(), 1.0)
            assert np.abs(got - expected).max() <= 1e-12 * scale, field

    def test_times_between_the_samples(self, pipeline):
        """Between two samples the fields lie on the trajectory at the
        requested time: g_1'' is the t-derivative of g_1', the centred
        difference of g_1' over a tenth of the gap matching it (measured:
        2.3e-5 relative; the start of the Newton iteration alone gives 2.3e-3)."""
        case = pipeline("d2")
        prof = case.profile
        mid = np.sqrt(prof.t[1:20] * prof.t[2:21])   # inside each interval
        delta = 0.05 * (prof.t[2:21] - prof.t[1:20])
        around = reconstruct.fields_at_t(case.traj, prof, np.concatenate([mid - delta,
                                                                         mid + delta]))
        centre = reconstruct.fields_at_t(case.traj, prof, mid)
        lo, hi = np.split(around["g_dot"][:, 0], 2)
        fd = (hi - lo) / (2 * delta)
        assert np.abs(fd / centre["g_ddot"][:, 0] - 1.0).max() <= 1e-4
