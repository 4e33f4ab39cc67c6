"""Seeding and adaptive integration of the phase flow."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import OdeSolution
from scipy.integrate._ivp.radau import RadauDenseOutput

import solitonforge as sf
from solitonforge import cli, flow, geometry, phase, radau, verify
from solitonforge.errors import (
    InvariantViolated,
    SeedLeavesWrongRegion,
    StepLimitExceeded,
)

from conftest import make_spec

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


class TestSeed:
    def test_bryant_seed_values(self):
        spec = make_spec("d2")
        y = sf.seed(spec)
        b = 1.0 / np.sqrt(2.0)
        assert y.shape == (2,)   # [X_1, Y_1]
        assert y[0] == pytest.approx(b + (-1e-4) * 2 * b, abs=1e-12)
        assert y[1] == pytest.approx(np.sqrt(1 - b * b) * (1 - 1e-4), abs=1e-12)
        L = y @ y - 1.0
        assert L < 0
        # L ~ 2 (1 + beta^2) eps0 to first order
        assert L == pytest.approx(2 * (1 + b * b) * -1e-4, rel=1e-3)

    def test_positive_eps0_rejected(self):
        spec = dataclasses.replace(make_spec("d2"), seed_coeffs=(1e-4,))
        with pytest.raises(SeedLeavesWrongRegion):
            flow.seed(spec)

    def test_zero_coeffs_is_stationary(self):
        spec = dataclasses.replace(make_spec("d2"), seed_coeffs=(0.0,))
        traj = flow.integrate(spec, flow.seed(spec))
        assert traj.termination == "stationary"
        assert len(traj.s) == 1
        assert traj.X[0, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    def test_seed_outside_the_ball_names_the_coefficient(self):
        """A soliton seed with L >= 0 names the coefficient that puts it
        there, not eps0 when eps0 is negative."""
        spec = make_spec("d2_3").with_seed_coeffs((-1e-6, 1e150))
        with pytest.raises(SeedLeavesWrongRegion, match=r"seed_coeffs\[1\] = 1e\+150"):
            flow.seed(spec)
        spec = make_spec("d2_3").with_seed_coeffs((1e-4, 1e-6))
        with pytest.raises(SeedLeavesWrongRegion,
                           match=r"seed_coeffs\[0\] = 0\.0001.*eps0 must be negative"):
            flow.seed(spec)

    @pytest.mark.parametrize("spec", [
        sf.ProblemSpec(factors=(sf.FactorSpec(2, 1.0),), mode=sf.Mode.RICCI_FLAT),
        make_spec("rf_d2_3").with_seed_coeffs((1e150, 1e-4)),
    ], ids=["r1-default", "huge-eps0"])
    def test_ricci_flat_seed_at_a_rest_point(self, spec):
        """A Ricci-flat seed that projects onto a rest point (the r = 1
        default seed_coeffs (0,), or an eps0 that swamps the rest) would
        never move; flow.seed rejects it naming seed_coeffs."""
        with pytest.raises(SeedLeavesWrongRegion, match="seed_coeffs.*rest point"):
            flow.seed(spec)

    def test_ricci_flat_seed_without_a_projection(self, tmp_path):
        """A Ricci-flat seed with H = 0 has no rescaling onto {H = 1}:
        flow.seed rejects it naming seed_coeffs, and the CLI exits 2.  A
        state with |X|^2 > 1 at H = 1 has no Y that gives L = 0."""
        spec = make_spec("rf_d2_3").with_seed_coeffs((-0.5, 1e-4))
        with pytest.raises(SeedLeavesWrongRegion, match=r"seed_coeffs.*H = 0"):
            flow.seed(spec)
        config = os.path.join(CONFIG_DIR, "ricci_flat_d2_3.json")
        assert cli.main(["ricci-flat", "--config", config, "--out", str(tmp_path),
                         "--seed-eps0=-0.5"]) == 2
        with pytest.raises(ValueError, match="no Y gives L = 0"):
            flow._project_ricci_flat([2.0, -1.0, 0.5, 0.5], [1.0, 1.0])

    def test_ricci_flat_seed_on_invariant_set(self):
        spec = make_spec("rf_d2_3")
        y = flow.seed(spec)
        assert abs(y @ y - 1.0) <= 1e-12   # L
        assert abs(y[:spec.r] @ np.sqrt(spec.dims) - 1.0) <= 1e-12   # H, as traj.H


class TestIntegrate:
    def test_terminal_invariants(self, pipeline):
        traj = pipeline("d2").traj
        assert traj.termination == "origin"
        y_end = np.concatenate([traj.X[-1], traj.Y[-1]])
        assert np.sqrt(y_end @ y_end) < 1e-6
        assert traj.L[-1] == pytest.approx(-1.0, abs=1e-6)
        assert traj.kappa_estimate == pytest.approx(-1.0, abs=1e-6)

    def test_derived_fields_follow_replace(self, pipeline):
        """n_steps and kappa_estimate are read from s and L, so a
        trajectory copied with other samples reports its own."""
        traj = pipeline("d2_3").traj
        assert traj.n_steps == traj.s.size - 1
        L2 = traj.L * 0.5
        copy = dataclasses.replace(traj, L=L2)
        assert copy.kappa_estimate == L2[-1]
        assert copy.kappa_estimate != traj.kappa_estimate
        shorter = dataclasses.replace(traj, s=traj.s[:10])
        assert shorter.n_steps == 9

    def test_lyapunov_monotone_multi_factor(self, pipeline):
        traj = pipeline("d2_3").traj
        dL = np.diff(traj.L)
        assert np.all(dL <= 1e-13 * (1.0 + np.abs(traj.L[:-1])))
        assert traj.L[0] < 0
        assert traj.L.min() > -1.0 - 1e-9

    def test_positive_y_throughout(self, pipeline):
        for name in ("d2", "d2_3", "d2_2_3"):
            assert pipeline(name).traj.Y.min() > 0

    def test_tolerance_halving(self, pipeline):
        coarse = pipeline("d2").traj
        spec = make_spec("d2")
        fine_spec = dataclasses.replace(
            spec,
            step_controls=dataclasses.replace(
                spec.step_controls, rtol=1e-11, atol=1e-11
            ),
        )
        fine = sf.run(fine_spec)
        # both reach the origin; terminal L agrees within 10x coarse tol
        assert fine.L[-1] == pytest.approx(coarse.L[-1], abs=1e-9)

    def test_seed_scaling_same_omega_limit(self):
        spec = dataclasses.replace(make_spec("d2"), seed_coeffs=(-5e-5,))
        traj = sf.run(spec)
        assert traj.termination == "origin"
        assert traj.L[-1] == pytest.approx(-1.0, abs=1e-6)

    def test_step_limit(self):
        spec = make_spec("d2")
        tiny = dataclasses.replace(
            spec, step_controls=dataclasses.replace(spec.step_controls, max_steps=5)
        )
        with pytest.raises(StepLimitExceeded):
            sf.run(tiny)

    def test_underflowing_step_is_an_integrator_failure(self):
        """An atol so small that the Newton matrix overflows fails as
        StepLimitExceeded, not as the stepper's raw ValueError."""
        spec = make_spec("d2_3")
        bad = dataclasses.replace(
            spec, step_controls=dataclasses.replace(spec.step_controls, atol=1e-300)
        )
        with np.errstate(all="ignore"), pytest.raises(
            StepLimitExceeded, match="must not contain infs or NaNs"
        ):
            sf.run(bad)

    @pytest.mark.parametrize("name", ["d2_3", "rf_d2_3"])
    def test_stages_share_one_rhs_call(self, monkeypatch, name):
        """Each Newton iteration evaluates its five stages in one
        phase.rhs call on a (5, 2r) stack; every other call is one state.
        In Ricci-flat mode the stepper projects each accepted state before
        its one call, and the flow tests the seed with the stepper's f;
        the one call that is not the stepper's is flow.seed's rest-point
        test of a Ricci-flat seed."""
        shapes = []
        solvers = []
        rhs = phase.rhs

        def recorded(y, sqrt_d):
            shapes.append(y.shape)
            return rhs(y, sqrt_d)

        class Recorded(radau.Radau):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                solvers.append(self)

        monkeypatch.setattr(phase, "rhs", recorded)
        monkeypatch.setattr(flow, "Radau", Recorded)
        sf.run(make_spec(name))
        [solver] = solvers
        stacked = shapes.count((5, 4))
        single = shapes.count((4,))
        assert stacked > 0 and stacked + single == len(shapes)
        seed_calls = 0 if name == "d2_3" else 1
        assert 5 * stacked + single == solver.nfev + seed_calls

    def test_ricci_flat_steps_start_on_the_invariant_set(self, monkeypatch):
        """After every accepted Ricci-flat step the stepper's own state is
        the projected sample the trajectory records, on {L = 0, H = 1},
        and its f is phase.rhs there, bit for bit."""
        spec = make_spec("rf_d2_3")
        sqrt_d = np.sqrt(spec.dims)
        states = []

        class Recorded(radau.Radau):
            def step(self):
                msg = super().step()
                y = self.y
                assert abs(y @ y - 1.0) <= 1e-12   # L
                assert abs(y[:spec.r] @ sqrt_d - 1.0) <= 1e-12   # H, as traj.H
                assert np.array_equal(self.f, phase.rhs(self.y, sqrt_d))
                states.append(self.y.copy())
                return msg

        monkeypatch.setattr(flow, "Radau", Recorded)
        traj = sf.run(spec)
        assert np.array_equal(np.array(states), np.hstack([traj.X, traj.Y])[1:])

    def test_non_finite_error_estimate_is_an_integrator_failure(self, monkeypatch):
        """A non-finite f + ZE in the error estimate raises the stepper's
        ValueError, even though the Newton stages are finite, and so ends
        a run in StepLimitExceeded."""
        solver = radau.Radau(lambda y: -y, lambda y: -np.eye(2), 0.0,
                             np.ones(2), t_bound=1.0, rtol=1e-3, atol=1e-6)
        solver.f = np.array([np.nan, 1.0])
        with pytest.raises(ValueError, match=radau._NOT_FINITE):
            solver.step()

        singles = []
        rhs = phase.rhs

        def late_nan(y, sqrt_d):
            """NaN for one-state calls after the first 20; the stacked
            stages, which the Newton iteration uses, stay finite."""
            if y.ndim == 1:
                singles.append(1)
                if len(singles) > 20:
                    return np.full_like(y, np.nan)
            return rhs(y, sqrt_d)

        monkeypatch.setattr(phase, "rhs", late_nan)
        with pytest.raises(StepLimitExceeded, match=radau._NOT_FINITE):
            sf.run(make_spec("d2_3"))

    def test_step_range_brackets_every_step(self, monkeypatch):
        """The stepper's h_min and h_max are the smallest and largest of
        the accepted steps the trajectory records."""
        solvers = []

        class Recorded(radau.Radau):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                solvers.append(self)

        monkeypatch.setattr(flow, "Radau", Recorded)
        traj = sf.run(_config_spec("bryant_d2"))
        [solver] = solvers
        h = np.diff(traj.s)
        assert h.size == traj.n_steps
        assert np.all((solver.h_min <= h) & (h <= solver.h_max))
        assert (solver.h_min, solver.h_max) == (h.min(), h.max())
        assert type(solver.h_min) is type(solver.h_max) is float

    @pytest.mark.parametrize("invariant, factor", [
        ("Y_positive", np.array([1.0, 1.0, 1.0, -1.0])),
        ("L_decreasing", np.full(4, 1.01)),
    ])
    def test_step_monitors(self, monkeypatch, invariant, factor):
        """An accepted state with a non-positive Y, or with a larger L than
        the last one, ends the run with the monitor's name."""

        class Perturbed(radau.Radau):
            def step(self):
                msg = super().step()
                if self.t > 1.0:
                    self.y = self.y * factor
                return msg

        monkeypatch.setattr(flow, "Radau", Perturbed)
        with pytest.raises(InvariantViolated) as err:
            sf.run(make_spec("d2_3"))
        assert err.value.invariant == invariant
        assert err.value.s > 1.0

    def test_decay_exponents_near_seed(self, pipeline):
        case = pipeline("d2_3")
        traj, spec = case.traj, case.spec
        b2 = sf.constants(spec).beta ** 2
        L0 = abs(traj.L[0])
        s, X, Y, L = verify._window_states(traj, 1.5 * L0, 50 * L0)
        expo_L = np.polyfit(s, np.log(-L), 1)[0]
        expo_Y = np.polyfit(s, np.log(Y[:, 1]), 1)[0]
        assert expo_L == pytest.approx(2 * b2, rel=0.05)
        assert expo_Y == pytest.approx(b2, rel=0.05)


class TestRicciFlatMode:
    def test_invariant_set_drift(self, pipeline):
        for name in ("rf_d2_3", "rf_d2_2_3"):
            traj = pipeline(name).traj
            assert np.abs(traj.L).max() <= 1e-8
            assert np.abs(traj.H - 1.0).max() <= 1e-8

    def test_terminates_stationary(self, pipeline):
        assert pipeline("rf_d2_3").traj.termination == "stationary"

    def test_dense_output_meets_projected_samples(self):
        """The projection moves each accepted state after its interpolant
        is formed; at every step's right end the two differ by roundoff."""
        traj = sf.run(_config_spec("ricci_flat_d2_3"))
        samples = np.hstack([traj.X, traj.Y])[1:]
        # at a step boundary the dense output uses the step that ends there
        mismatch = np.abs(traj.dense(traj.s[1:]).T - samples).max()
        assert mismatch <= 1e-12


class TestDenseSample:
    def test_knot_reproduction(self, pipeline):
        traj = pipeline("d2").traj
        k = len(traj.s) // 2
        y = traj.dense([traj.s[k]])[:, 0]
        assert y[:traj.r] == pytest.approx(traj.X[k], abs=1e-12)
        assert y[traj.r:] == pytest.approx(traj.Y[k], abs=1e-12)

    def test_empty_input(self, pipeline):
        traj = pipeline("d2").traj
        assert traj.dense([]).shape == (2 * traj.r, 0)

    def test_midpoint_consistent_with_flow(self, pipeline):
        """Dense output at a midpoint feeds the vector field consistently:
        finite differences of nearby dense samples match the rhs."""
        traj = pipeline("d2").traj
        spec = pipeline("d2").spec
        k = len(traj.s) // 4
        s_mid = 0.5 * (traj.s[k] + traj.s[k + 1])
        h = (traj.s[k + 1] - traj.s[k]) * 1e-4
        ym, y0, yp = traj.dense([s_mid - h, s_mid, s_mid + h]).T
        fd = (yp - ym) / (2 * h)
        assert fd == pytest.approx(phase.rhs(y0, np.sqrt(spec.dims)), rel=1e-6, abs=1e-10)


def _config_spec(name):
    return cli.parse_config(os.path.join(CONFIG_DIR, f"{name}.json")).spec


# (n_steps, nfev, njev, nlu, nrejected) of each shipped single-run config
SHIPPED_WORK = {
    "bryant_d2": (330, 5497, 242, 786, 4),
    "r1_d3": (328, 5475, 247, 765, 1),
    "r1_d4": (328, 5515, 251, 783, 4),
    "r1_d9": (323, 5430, 258, 795, 2),
    "r2_d2_3": (325, 5437, 239, 762, 5),
    "r2_d3_5": (326, 5468, 245, 771, 5),
    "r3_d2_2_3": (317, 5359, 238, 759, 8),
    "ricci_flat_d2_3": (119, 1761, 21, 111, 2),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_WORK))
def test_shipped_config_work_is_pinned(monkeypatch, name):
    """Steps, right-hand-side and Jacobian evaluations, factorisations and
    rejected attempts on each shipped config, as literals.  Changing a
    literal means the change altered the integrator's work (its step or
    Newton decisions, not only its speed): report the old and new values
    in CHANGES.md."""
    solvers = []

    class Recorded(radau.Radau):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            solvers.append(self)

    monkeypatch.setattr(flow, "Radau", Recorded)
    traj = sf.run(_config_spec(name))
    [s] = solvers
    assert (traj.n_steps, s.nfev, s.njev, s.nlu, s.nrejected) == SHIPPED_WORK[name]


# The same counts for specs that no entry of SHIPPED_WORK covers: the r = 3
# Ricci-flat fixture spec rf_d2_2_3, and the five points of
# configs/sweep_d2_3.json in ratio order, as `solitonforge sweep` runs them
WIDER_WORK = {
    "rf_d2_2_3": [(116, 1738, 25, 117, 2)],
    "sweep_d2_3": [
        (324, 5411, 238, 759, 5),
        (325, 5437, 239, 762, 5),
        (327, 5454, 239, 768, 6),
        (328, 5510, 241, 780, 8),
        (327, 5449, 241, 768, 5),
    ],
}


@pytest.mark.parametrize("name", sorted(WIDER_WORK))
def test_wider_work_is_pinned(monkeypatch, tmp_path, name):
    """As test_shipped_config_work_is_pinned, for WIDER_WORK; the sweep's
    points are counted through the `sweep` command itself."""
    solvers = []

    class Recorded(radau.Radau):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            solvers.append(self)

    monkeypatch.setattr(flow, "Radau", Recorded)
    if name == "sweep_d2_3":
        config = os.path.join(CONFIG_DIR, f"{name}.json")
        assert cli.main(["sweep", "--config", config, "--out", str(tmp_path)]) == 0
        steps = [json.loads((tmp_path / f"sweep_{k:02d}" / "profile.json").read_text())
                 ["n_steps"] for k in range(len(solvers))]
    else:
        steps = [sf.run(make_spec(name)).n_steps]
    work = [(n, s.nfev, s.njev, s.nlu, s.nrejected) for n, s in zip(steps, solvers)]
    assert work == WIDER_WORK[name]


TOY_JACOBIAN = np.array([[0.0, 1.0], [-1.0, -10.0]])


def _toy(jac=lambda y: TOY_JACOBIAN, **kwargs):
    """The stepper on y'' + 10 y' + y = 0, y(0) = (1, 0), over [0, 5];
    ``jac`` replaces its exact Jacobian."""
    fun = lambda y: np.stack([y[..., 1], -y[..., 0] - 10.0 * y[..., 1]], axis=-1)
    args = dict(t_bound=5.0, rtol=1e-6, atol=1e-9)
    args.update(kwargs)
    return radau.Radau(fun, jac, 0.0, [1.0, 0.0], **args)


class TestAccuracy:
    """The stepper's contract: accuracy, checked against a tight
    reference integration, a tolerance ladder and a closed form.  The
    fixture specs d2, d9, d2_3, d2_2_3 and rf_d2_3 are those of the
    shipped configs bryant_d2, r1_d9, r2_d2_3, r3_d2_2_3 and
    ricci_flat_d2_3."""

    @pytest.mark.parametrize("name", ["d2", "d9", "d2_3", "d2_2_3", "rf_d2_3"])
    def test_local_error_within_the_step_error_scale(self, pipeline, name):
        """Every 7th accepted step's own end, before any projection,
        agrees with the stepper run at rtol = atol = 1e-13 from the same
        start over the same interval, to within a hundredth of the error
        scale atol + rtol max(|y_k|, |y_ref|) in the RMS norm (measured:
        at most 4.2e-4)."""
        case = pipeline(name)
        dense, sc = case.traj.dense, case.spec.step_controls
        sqrt_d = np.sqrt(case.spec.dims)
        worst = 0.0
        for k in range(0, case.traj.n_steps, 7):
            start = dense.samples[k]
            ref = radau.Radau(lambda y: phase.rhs(y, sqrt_d),
                              lambda y: phase.rhs_jacobian(y, sqrt_d),
                              dense.ts[k], start, t_bound=dense.ts[k + 1],
                              rtol=1e-13, atol=1e-13)
            while ref.status == "running":
                ref.step()
            end = start + dense.Q[k].sum(axis=1)
            scale = sc.atol + sc.rtol * np.maximum(np.abs(start), np.abs(ref.y))
            worst = max(worst, radau._norm((end - ref.y) / scale))
        assert worst <= 1e-2

    @pytest.mark.parametrize("name", ["d2", "d9", "d2_3", "d2_2_3"])
    def test_verify_checks_converge(self, pipeline, name):
        """Tightening rtol = atol from 1e-10 to 1e-12 moves every verify
        check with a tolerance by less than 1% of it (measured: at most
        0.25%, L_decay_rate), and every tolerance-0 check passes on both
        runs."""
        case = pipeline(name)
        coarse = verify.run_suite(case.traj, case.profile, case.curv, case.spec)
        spec = case.spec
        assert spec.step_controls.rtol == spec.step_controls.atol == 1e-10
        spec = dataclasses.replace(spec, step_controls=dataclasses.replace(
            spec.step_controls, rtol=1e-12, atol=1e-12))
        traj = sf.run(spec)
        profile = sf.build_profile(traj, spec)
        curv = geometry.sectional_curvatures(profile, spec)
        fine = verify.run_suite(traj, profile, curv, spec)
        assert [c.name for c in coarse.checks] == [c.name for c in fine.checks]
        for a, b in zip(coarse.checks, fine.checks):
            if a.tolerance > 0:
                assert abs(a.measured - b.measured) < 1e-2 * a.tolerance, a.name
            else:
                assert a.passed and b.passed, a.name

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    def test_closed_form(self, tol):
        """On y'' + 10 y' + y = 0, y(0) = (1, 0), the state at t = 5
        matches the exact solution to within a hundredth of its error
        scale atol + rtol |y| (measured: at most 6.9e-6)."""
        solver = _toy(rtol=tol, atol=tol)
        while solver.status == "running":
            assert solver.step() is None
        assert solver.t == 5.0
        lam = np.array([-5.0 + 24 ** 0.5, -5.0 - 24 ** 0.5])
        amp = np.array([-lam[1], lam[0]]) / (lam[0] - lam[1])   # y(0) = 1, y'(0) = 0
        exact = np.array([amp @ np.exp(5.0 * lam), amp @ (lam * np.exp(5.0 * lam))])
        scale = tol + tol * np.abs(exact)
        assert np.all(np.abs(solver.y - exact) <= 1e-2 * scale)


class TestFactorisation:
    """The Newton matrices' inversion and its failures."""

    def test_nlu_counts_every_factorisation(self, monkeypatch):
        """nlu counts the matrices inverted, a stack counting each of its
        members."""
        solvers = []
        matrices = []

        class Recorded(radau.Radau):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                solvers.append(self)

        lu = radau._lu

        def counted(a):
            matrices.append(math.prod(a.shape[:-2]))
            return lu(a)

        monkeypatch.setattr(flow, "Radau", Recorded)
        monkeypatch.setattr(radau, "_lu", counted)
        sf.run(make_spec("d2"))
        [solver] = solvers
        assert solver.nlu > 0
        assert solver.nlu == sum(matrices)

    def test_factorisation_failures(self, monkeypatch, tmp_path):
        """A non-finite Newton matrix raises ValueError, also when it is
        only the complex member of the stacked pair; a singular one raises
        numpy's LinAlgError (a ValueError too), which ends a run in
        StepLimitExceeded and the CLI in exit 2."""
        solver = radau.Radau(lambda y: -y, lambda y: -np.eye(2), 0.0,
                             np.ones(2), t_bound=1.0, rtol=1e-3, atol=1e-6)
        with pytest.raises(ValueError, match=radau._NOT_FINITE):
            solver.lu(np.array([[1.0, np.inf], [0.0, 1.0]]))
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            solver.lu(np.zeros((2, 2), dtype=complex))
        assert solver.nlu == 2
        pair = np.array([np.eye(2), (1 + 1j) * np.eye(2)])
        pair[1, 0, 1] = complex(0.0, np.inf)
        with pytest.raises(ValueError, match=radau._NOT_FINITE):
            solver.lu(pair)
        assert solver.nlu == 4
        assert issubclass(np.linalg.LinAlgError, ValueError)

        lu = radau._lu
        monkeypatch.setattr(radau, "_lu", lambda a: lu(np.zeros_like(a)))
        with pytest.raises(StepLimitExceeded, match="Singular matrix"):
            sf.run(make_spec("d2"))
        config = os.path.join(CONFIG_DIR, "bryant_d2.json")
        assert cli.main(["solve", "--config", config, "--out", str(tmp_path)]) == 2


class TestRadauStepper:
    """Set-up and failure rules of the stepper."""

    def test_counts_rejected_steps(self):
        """A step as long as the interval fails the error test on the
        stiff toy problem; each discarded attempt is counted."""
        solver = _toy()
        solver.h_abs = 5.0
        assert solver.nrejected == 0
        while solver.status == "running":
            assert solver.step() is None
        assert solver.nrejected > 0
        assert 0 < solver.h_min <= solver.h_max < 5.0

    def test_jacobian_taken_at_the_predicted_step_end(self):
        """The first Jacobian is taken at y0, and every later one at the
        warm start's prediction of the end of the step that asked for
        it, ``y + _warm_start(h)[-1]``, bit for bit: after an accepted
        step whose Newton solve contracted slowly, and after a solve that
        failed with a stale Jacobian."""
        # ("jac", y), ("warm", y + Z0[-1]), ("failed",) for the forced
        # failure, and after each accepted step ("asked",) if it asked for
        # a Jacobian, ("kept",) if not
        events = []

        def jac(y):
            events.append(("jac", np.array(y)))
            # half the true Jacobian: the simplified Newton iteration
            # contracts slowly, so accepted steps ask for fresh ones
            return 0.5 * TOY_JACOBIAN

        solver = _toy(jac=jac)
        warm_start, fun = solver._warm_start, solver._fun

        def recorded_warm_start(h):
            Z0 = warm_start(h)
            events.append(("warm", solver.y + Z0[-1]))
            return Z0

        def stages(y):
            # one non-finite stage stack, in a step that starts with a
            # stale Jacobian, fails its Newton solve
            if (y.ndim == 2 and not solver.current_jac and solver.dense is not None
                    and ("failed",) not in events):
                events.append(("failed",))
                return np.full_like(y, np.nan)
            return fun(y)

        solver._warm_start, solver._fun = recorded_warm_start, stages
        while solver.status == "running":
            solver.step()
            events.append(("asked",) if solver.J is None else ("kept",))

        kind, y0 = events[0]
        assert kind == "jac" and np.array_equal(y0, [1.0, 0.0])
        asked_by = []
        for i, event in enumerate(events[1:], 1):
            if event[0] == "jac":
                [predicted] = [e[1] for e in events[:i] if e[0] == "warm"][-1:]
                assert np.array_equal(event[1], predicted)
                asked_by.append(events[i - 1][0] if events[i - 1][0] == "failed"
                                else events[i - 2][0])
        assert solver.njev == len(asked_by) + 1
        assert "asked" in asked_by and "failed" in asked_by

    def test_package_loads_no_scipy(self, tmp_path):
        """Importing the package and its CLI loads no scipy module at all,
        and neither does a `verify` run: the stepper's linear algebra is
        numpy's.  Nor does the run load numpy.ma, which the first
        np.unique call imports."""
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        code = (
            "import sys\n"
            "import solitonforge, solitonforge.cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(loaded())\n"
            "code = solitonforge.cli.main(sys.argv[1:])\n"
            "print(loaded(), code)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        config = os.path.join(CONFIG_DIR, "bryant_d2.json")
        proc = subprocess.run(
            [sys.executable, "-c", code, "verify", "--config", config,
             "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "[]"
        assert lines[-2] == "[] 0"
        assert lines[-1] == "False"

    def test_underflowing_step_raises_too_small_step(self, monkeypatch):
        """When every stacked stage is non-finite, no Newton iteration
        converges and the step size halves until it is below the spacing
        of floats at t: step() raises TOO_SMALL_STEP, and a run ends in
        StepLimitExceeded with that message."""
        fun = lambda y: np.full_like(y, np.nan) if y.ndim == 2 else -y
        solver = radau.Radau(fun, lambda y: -np.eye(2), 1.0, np.ones(2),
                             t_bound=2.0, rtol=1e-3, atol=1e-6)
        with pytest.raises(ValueError) as err:
            solver.step()
        assert str(err.value) == radau.TOO_SMALL_STEP
        assert solver.t == 1.0 and solver.nrejected > 0

        rhs = phase.rhs
        monkeypatch.setattr(phase, "rhs", lambda y, sqrt_d: (
            np.full_like(y, np.nan) if y.ndim == 2 else rhs(y, sqrt_d)))
        spec = dataclasses.replace(make_spec("d2_3"), s_start=1.0)
        with pytest.raises(StepLimitExceeded) as err:
            sf.run(spec)
        assert str(err.value).endswith(radau.TOO_SMALL_STEP)


class TestFusedNewtonUpdate:
    """The stage-space Newton operator and the error operator against the
    eigenbasis form of the simplified Newton update (one real and two
    complex solves) and the textbook error estimate."""

    @staticmethod
    def _reference(J, h, F, W):
        n = J.shape[0]
        inv_real = np.linalg.inv(radau.MU_REAL / h * np.eye(n) - J)
        f_real = F.dot(radau.TI[0]) - radau.MU_REAL / h * W[0]
        dW = [inv_real @ f_real]
        for i, mu in ((1, radau.MU_COMPLEX[0]), (3, radau.MU_COMPLEX[1])):
            inv_complex = np.linalg.inv(mu / h * np.eye(n) - J)
            f_complex = (F.dot(radau.TI[i] + 1j * radau.TI[i + 1])
                         - mu / h * (W[i] + 1j * W[i + 1]))
            dW_complex = inv_complex @ f_complex
            dW += [dW_complex.real, dW_complex.imag]
        return inv_real, np.stack(dW)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_eigenbasis_update(self, n):
        """The Newton operator takes [F ; Z/h] to the eigenbasis update dW
        and its image dZ = T dW, and the error operator takes [f ; Z/h] to
        inv_real (f + Z^T E / h), each to 1e-13 of the largest entry."""
        rng = np.random.default_rng(n)
        solver = radau.Radau(lambda y: -y, lambda y: -np.eye(n), 0.0,
                             np.ones(n), t_bound=1.0, rtol=1e-6, atol=1e-9)
        for _ in range(20):
            J = rng.standard_normal((n, n))
            h = 10.0 ** rng.uniform(-4, 1)
            F = rng.standard_normal((n, 5))      # one stage per column
            W = rng.standard_normal((5, n))
            f = rng.standard_normal(n)
            Z = radau.T.dot(W)
            nlu = solver.nlu
            error_op, newton_op = solver._newton_operators(h, J)
            assert solver.nlu == nlu + 3
            inv_real, expected = self._reference(J, h, F, W)
            got = newton_op @ np.concatenate([F.T.ravel(), (Z / h).ravel()])
            dW, dZ = got.reshape(2, 5, n)
            assert np.abs(dW - expected).max() <= 1e-13 * np.abs(expected).max()
            image = radau.T.dot(expected)
            assert np.abs(dZ - image).max() <= 1e-13 * np.abs(image).max()
            error = error_op @ np.concatenate([f, (Z / h).ravel()])
            reference = inv_real @ (f + Z.T.dot(radau.E) / h)
            assert np.abs(error - reference).max() <= 1e-13 * np.abs(reference).max()

    @staticmethod
    def _solve(fun, Z0):
        solver = radau.Radau(fun, lambda y: -np.eye(2), 0.0, np.ones(2),
                             t_bound=1.0, rtol=1e-3, atol=1e-6)
        h = 0.1
        _, K = solver._newton_operators(h, solver.J)
        scale = solver.atol + solver.rtol * np.abs(solver.y)
        nfev = solver.nfev
        result = solver._solve_collocation(solver.y, h, Z0, scale, K)
        assert solver.nfev == nfev + 5
        return result

    def test_non_finite_w_raises(self):
        """A finite F with a non-finite W/h raises the solve's ValueError,
        which flow.integrate turns into StepLimitExceeded."""
        with pytest.raises(ValueError, match=radau._NOT_FINITE):
            self._solve(lambda y: np.zeros_like(y), np.full((5, 2), np.nan))

    def test_non_finite_f_ends_unconverged(self):
        """A non-finite stage value ends the iteration unconverged, so the
        stepper retries with a fresh Jacobian or a halved step."""
        fun = lambda y: np.full_like(y, np.nan) if y.ndim == 2 else -y
        converged, n_iter, Z, rate = self._solve(fun, np.zeros((5, 2)))
        assert (converged, n_iter, rate) == (False, 1, None)
        assert np.array_equal(Z, np.zeros((5, 2)))


def _radau_iia(s):
    """The s-stage Radau IIA constants rebuilt from the Gauss-Radau nodes,
    in numpy: the nodes c, the tableau A, the eigenvalues of A^-1, the
    error weights E = A^-T (b_hat - b) / gamma0 and the dense-output
    matrix P."""
    legendre = np.polynomial.Legendre
    p = legendre.basis(s, domain=[0, 1]) - legendre.basis(s - 1, domain=[0, 1])
    c = np.sort(p.roots().real)
    c = c - p(c) / p.deriv()(c)   # one Newton step polishes the roots
    c[-1] = 1.0
    k = np.arange(s)
    V = c[:, None] ** k
    # A_ij is the integral over [0, c_i] of the j-th Lagrange polynomial,
    # whose power-basis coefficients are the j-th column of V^-1
    A = (c[:, None] ** (k + 1) / (k + 1)) @ np.linalg.inv(V)
    mu = np.linalg.eigvals(np.linalg.inv(A))
    gamma0 = 1 / mu[np.argmin(np.abs(mu.imag))].real
    # embedded weights on (0, c): gamma0 + sum b_hat = 1 and
    # sum b_hat c^(k-1) = 1/k for k = 2..s
    b_hat = np.linalg.solve(V.T, 1.0 / (k + 1) - gamma0 * (k == 0))
    E = np.linalg.solve(A.T, b_hat - A[-1]) / gamma0
    P = np.linalg.inv(c[:, None] ** (k + 1)).T
    return c, A, mu, E, P


class TestTableau:
    """The five-stage constants of radau.py against their construction
    from the Gauss-Radau nodes, and the construction against the
    three-stage constants of Hairer & Wanner's RADAU5."""

    def test_five_stage_constants(self):
        c, A, mu, E, P = _radau_iia(5)
        assert np.abs(c - radau.C).max() <= 1e-15
        k = np.arange(1, 6)
        # simplifying conditions: A c^(k-1) = c^k / k
        assert np.abs(A @ c[:, None] ** (k - 1) - c[:, None] ** k / k).max() <= 1e-13
        expected = sorted([radau.MU_REAL, *radau.MU_COMPLEX, *radau.MU_COMPLEX.conj()],
                          key=lambda z: (z.real, z.imag))
        assert np.abs(np.sort_complex(mu) - expected).max() <= 1e-12
        assert np.abs(radau.TI @ np.linalg.inv(A) @ radau.T - radau.M0).max() <= 1e-12
        assert np.abs(radau.T @ radau.TI - np.eye(5)).max() <= 1e-13
        assert np.abs(E - radau.E).max() <= 1e-12 * np.abs(E).max()
        assert np.abs(P - radau.P).max() <= 1e-12 * np.abs(P).max()
        # the embedded weights that radau.E encodes have order 5
        gamma0 = 1 / radau.MU_REAL
        b_hat = A[-1] + gamma0 * A.T @ radau.E
        assert gamma0 + b_hat.sum() == pytest.approx(1.0, abs=1e-13)
        assert np.abs(b_hat @ c[:, None] ** (k[1:] - 1) - 1 / k[1:]).max() <= 1e-13
        # P reproduces the stage increments at the nodes
        Z = np.random.default_rng(5).standard_normal((5, 3))
        Q = Z.T @ radau.P
        assert np.abs(Q @ (c[:, None] ** k).T - Z.T).max() <= 1e-12

    def test_three_stage_construction(self):
        """At s = 3 the construction gives RADAU5's closed forms."""
        s6 = 6 ** 0.5
        c, _, mu, E, P = _radau_iia(3)
        assert np.abs(c - [(4 - s6) / 10, (4 + s6) / 10, 1]).max() <= 1e-13
        assert np.abs(E - np.array([-13 - 7 * s6, -13 + 7 * s6, -1]) / 3).max() <= 1e-13
        assert np.abs(P - [[13 / 3 + 7 * s6 / 3, -23 / 3 - 22 * s6 / 3, 10 / 3 + 5 * s6],
                           [13 / 3 - 7 * s6 / 3, -23 / 3 + 22 * s6 / 3, 10 / 3 - 5 * s6],
                           [1 / 3, -8 / 3, 10 / 3]]).max() <= 1e-13
        mu_real = mu[np.argmin(np.abs(mu.imag))]
        assert abs(mu_real - (3 + 3 ** (2 / 3) - 3 ** (1 / 3))) <= 1e-13


class TestDenseOutput:
    """The stacked interpolant against scipy's OdeSolution over the same
    per-step Radau polynomials."""

    @pytest.mark.parametrize("name", ["d2_3", "rf_d2_2_3"])
    def test_matches_ode_solution(self, pipeline, name):
        dense = pipeline(name).traj.dense
        ts = dense.ts
        reference = OdeSolution(ts, [
            RadauDenseOutput(ts[k], ts[k + 1], dense.samples[k], dense.Q[k])
            for k in range(ts.size - 1)
        ])
        rng = np.random.default_rng(0)
        s = np.concatenate([
            ts,                                       # step boundaries
            rng.uniform(ts[0], ts[-1], 2000),
            [ts[0] - 1.0, ts[-1] + 1.0],              # extrapolation
        ])
        expected = reference(s)
        got = dense(s)
        assert got.shape == expected.shape
        tol = 8 * np.finfo(float).eps * np.abs(expected).max()
        assert np.abs(got - expected).max() <= tol

    @pytest.mark.parametrize("name", ["d2_3", "rf_d2_2_3"])
    def test_fractions_match_ode_solution(self, pipeline, name):
        """Every step's polynomial at fixed fractions of the step, against
        scipy's interpolant of that step; fraction 0 is the step's sample."""
        dense = pipeline(name).traj.dense
        ts = dense.ts
        x = np.array([0.0, 0.03, 0.5, 0.97, 1.0])
        got = dense.at_fractions(x)
        assert got.shape == (ts.size - 1, dense.samples.shape[1], x.size)
        assert np.array_equal(got[:, :, 0], dense.samples[:-1])
        expected = np.stack([
            RadauDenseOutput(ts[k], ts[k + 1], dense.samples[k], dense.Q[k])(
                ts[k] + x * (ts[k + 1] - ts[k]))
            for k in range(ts.size - 1)
        ])
        tol = 8 * np.finfo(float).eps * np.abs(expected).max()
        assert np.abs(got - expected).max() <= tol
