"""Seeding and adaptive integration of the phase flow."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import OdeSolution, Radau
from scipy.integrate._ivp.radau import RadauDenseOutput
from scipy.linalg import lu_factor, lu_solve

import solitonforge as sf
from solitonforge import cli, flow, phase, radau
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
        p = sf.seed(spec)
        b = 1.0 / np.sqrt(2.0)
        assert p.X[0] == pytest.approx(b + (-1e-4) * 2 * b, abs=1e-12)
        assert p.Y[0] == pytest.approx(np.sqrt(1 - b * b) * (1 - 1e-4), abs=1e-12)
        L = phase.lyapunov(p)
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

    def test_ricci_flat_seed_on_invariant_set(self):
        spec = make_spec("rf_d2_3")
        p = flow.seed(spec)
        assert abs(phase.lyapunov(p)) <= 1e-12
        assert abs(phase.hamiltonian_H(p, spec) - 1.0) <= 1e-12


class TestIntegrate:
    def test_terminal_invariants(self, pipeline):
        traj = pipeline("d2").traj
        assert traj.termination == "origin"
        y_end = np.concatenate([traj.X[-1], traj.Y[-1]])
        assert np.sqrt(y_end @ y_end) < 1e-6
        assert traj.L[-1] == pytest.approx(-1.0, abs=1e-6)
        assert traj.kappa_estimate == pytest.approx(-1.0, abs=1e-6)

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

    @pytest.mark.parametrize("controls", [{"atol": 1e-300}, {"initial_step": 5e-324}])
    def test_underflowing_step_is_an_integrator_failure(self, controls):
        """A step size or atol so small that the Newton matrix overflows
        fails as StepLimitExceeded, not as the stepper's raw ValueError."""
        spec = make_spec("d2_3")
        bad = dataclasses.replace(
            spec, step_controls=dataclasses.replace(spec.step_controls, **controls)
        )
        with np.errstate(all="ignore"), pytest.raises(
            StepLimitExceeded, match="must not contain infs or NaNs"
        ):
            sf.run(bad)

    def test_stages_share_one_rhs_call(self, monkeypatch):
        """Each Newton iteration evaluates its three stages in one
        phase.rhs call on a (3, 2r) stack; every other call is one state."""
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
        sf.run(make_spec("d2_3"))
        [solver] = solvers
        stacked = shapes.count((3, 4))
        single = shapes.count((4,))
        assert stacked > 0 and stacked + single == len(shapes)
        # the flow's own call at the seed is not one of the stepper's nfev
        assert 3 * stacked + single == solver.nfev + 1

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
        from solitonforge.verify import fit_exponent

        case = pipeline("d2_3")
        traj, spec = case.traj, case.spec
        b2 = sf.constants(spec).beta ** 2
        L0 = abs(traj.L[0])
        expo_L = fit_exponent(traj, lambda X, Y, L: np.log(-L), 1.5 * L0, 50 * L0)
        expo_Y = fit_exponent(traj, lambda X, Y, L: np.log(Y[:, 1]), 1.5 * L0, 50 * L0)
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
        [p] = flow.dense_sample(traj, [traj.s[k]])
        assert p.X == pytest.approx(traj.X[k], abs=1e-12)
        assert p.Y == pytest.approx(traj.Y[k], abs=1e-12)

    def test_empty_input(self, pipeline):
        assert flow.dense_sample(pipeline("d2").traj, []) == []

    def test_midpoint_consistent_with_flow(self, pipeline):
        """Dense output at a midpoint feeds the vector field consistently:
        finite differences of nearby dense samples match the rhs."""
        traj = pipeline("d2").traj
        spec = pipeline("d2").spec
        k = len(traj.s) // 4
        s_mid = 0.5 * (traj.s[k] + traj.s[k + 1])
        h = (traj.s[k + 1] - traj.s[k]) * 1e-4
        pm, p0, pp = flow.dense_sample(traj, [s_mid - h, s_mid, s_mid + h])
        dX, dY = sf.vector_field(p0, spec)
        fd = (pp.as_vector() - pm.as_vector()) / (2 * h)
        assert fd == pytest.approx(np.concatenate([dX, dY]), rel=1e-6, abs=1e-10)


def _config_spec(name):
    return cli.parse_config(os.path.join(CONFIG_DIR, f"{name}.json")).spec


class TestLapackLu:
    """The in-package Radau stepper, whose Newton matrices numpy inverts,
    against scipy's own Radau with its LAPACK LU factorisation."""

    @pytest.mark.parametrize(
        "name", ["bryant_d2", "r1_d9", "r2_d2_3", "r3_d2_2_3", "ricci_flat_d2_3"])
    def test_dense_output_agrees_with_stock_radau(self, name):
        """Stock scipy Radau, driven with the flow's projection and stopping
        rule, takes as many steps, and its dense output agrees with the
        flow's at every common step end and midpoint to within a hundredth
        of the error scale atol + rtol |y| (measured: at most 2e-4 of it)."""
        spec = _config_spec(name)
        traj = sf.run(spec)
        sqrt_d = np.sqrt(spec.dims)
        f = lambda s, y: phase.rhs(y, sqrt_d)
        jac = lambda s, y: phase.rhs_jacobian(y, sqrt_d)
        start = flow.seed(spec)
        sc = spec.step_controls
        stock = Radau(f, start.s, start.as_vector(), t_bound=spec.s_max,
                      rtol=sc.rtol, atol=sc.atol, jac=jac,
                      first_step=sc.initial_step)
        ts, pieces = [stock.t], []
        while True:
            assert stock.step() is None
            ts.append(stock.t)
            pieces.append(stock.dense_output())
            if spec.mode is sf.Mode.RICCI_FLAT:
                stock.y = flow._project_ricci_flat(stock.y, spec)
                stock.f = f(stock.t, stock.y)
                if np.sqrt(stock.f @ stock.f) < spec.origin_tol:
                    break
            elif np.sqrt(stock.y @ stock.y) < spec.origin_tol:
                break
        assert len(pieces) == traj.n_steps
        assert stock.status == "running"
        reference = OdeSolution(np.array(ts), pieces)
        s = traj.s[traj.s <= ts[-1]]
        s = np.concatenate([s, 0.5 * (s[1:] + s[:-1])])
        expected = reference(s)
        scale = sc.atol + sc.rtol * np.abs(expected)
        assert np.all(np.abs(traj.dense(s) - expected) <= 1e-2 * scale)

    def test_nlu_counts_every_factorisation(self, monkeypatch):
        solvers = []
        calls = []

        class Recorded(radau.Radau):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                solvers.append(self)

        lu = radau._lu

        def counted(a):
            calls.append(1)
            return lu(a)

        monkeypatch.setattr(flow, "Radau", Recorded)
        monkeypatch.setattr(radau, "_lu", counted)
        sf.run(make_spec("d2"))
        [solver] = solvers
        assert solver.nlu > 0
        assert solver.nlu == len(calls)

    @staticmethod
    def _solver():
        return radau.Radau(lambda s, y: -y, lambda s, y: -np.eye(2), 0.0,
                           np.ones(2), t_bound=1.0, rtol=1e-3, atol=1e-6)

    def test_non_finite_rhs_raises_like_scipy(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, np.nan])
        with pytest.raises(ValueError) as stock:
            lu_solve(lu_factor(a), b)
        solver = self._solver()
        with pytest.raises(ValueError) as ours:
            radau._solve_lu(solver.lu(a.copy()), b)
        assert str(ours.value) == str(stock.value)

    def test_factorisation_checks_like_scipy(self, monkeypatch, tmp_path):
        """A non-finite Newton matrix raises scipy's ValueError; a singular
        one raises numpy's LinAlgError (a ValueError too), which ends a run
        in StepLimitExceeded and the CLI in exit 2."""
        solver = self._solver()
        bad = np.array([[1.0, np.inf], [0.0, 1.0]])
        with pytest.raises(ValueError) as stock:
            lu_factor(bad)
        with pytest.raises(ValueError) as ours:
            solver.lu(bad.copy())
        assert str(ours.value) == str(stock.value)
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            solver.lu(np.zeros((2, 2), dtype=complex))
        assert solver.nlu == 2
        assert issubclass(np.linalg.LinAlgError, ValueError)

        lu = radau._lu
        monkeypatch.setattr(radau, "_lu", lambda a: lu(np.zeros_like(a)))
        with pytest.raises(StepLimitExceeded, match="Singular matrix"):
            sf.run(make_spec("d2"))
        config = os.path.join(CONFIG_DIR, "bryant_d2.json")
        assert cli.main(["solve", "--config", config, "--out", str(tmp_path)]) == 2


class TestRadauStepper:
    """Set-up rules of the stepper that scipy's Radau shares."""

    @staticmethod
    def _pair(**kwargs):
        fun = lambda s, y: np.array([y[1], -y[0] - 10.0 * y[1]])
        jac = lambda s, y: np.array([[0.0, 1.0], [-1.0, -10.0]])
        args = dict(t_bound=5.0, rtol=1e-6, atol=1e-9)
        args.update(kwargs)
        ours = radau.Radau(fun, jac, 0.0, [1.0, 0.0], **args)
        stock = Radau(fun, 0.0, [1.0, 0.0], jac=jac, **args)
        return ours, stock

    @staticmethod
    def _same_steps(ours, stock):
        """Both finish at t_bound after the same number of steps, with the
        same work counts and final states that agree within rtol."""
        steps = []
        for solver in (ours, stock):
            n = 0
            while solver.status == "running":
                assert solver.step() is None
                n += 1
            steps.append(n)
        assert steps[0] == steps[1]
        assert ours.status == stock.status == "finished"
        assert ours.t == stock.t
        assert np.all(np.abs(ours.y - stock.y) <= ours.rtol * np.abs(stock.y))
        assert (ours.nfev, ours.njev, ours.nlu) == (stock.nfev, stock.njev, stock.nlu)

    def test_rtol_floor_like_scipy(self):
        with pytest.warns(UserWarning) as warned:
            ours, stock = self._pair(rtol=1e-20)
        messages = [str(w.message) for w in warned]
        assert len(messages) == 2 and messages[0] == messages[1]
        assert "rtol" in messages[0]
        assert ours.rtol == stock.rtol == 100 * np.finfo(float).eps
        assert ours.newton_tol == stock.newton_tol
        self._same_steps(ours, stock)

    def test_first_step_bounds_like_scipy(self):
        for first_step in (0.0, -1.0, 5.5):
            with pytest.raises(ValueError) as stock:
                self._pair(first_step=first_step)
            with pytest.raises(ValueError) as ours:
                radau.Radau(lambda s, y: -y, lambda s, y: -np.eye(2), 0.0,
                            np.ones(2), t_bound=5.0, rtol=1e-6, atol=1e-9,
                            first_step=first_step)
            assert str(ours.value) == str(stock.value)
        for first_step in (5.0, 1e-3, None):
            self._same_steps(*self._pair(first_step=first_step))

    def test_counts_rejected_steps(self):
        """A first step as long as the interval fails the error test on
        the stiff toy problem; each discarded attempt is counted."""
        ours, _ = self._pair(first_step=5.0)
        assert ours.nrejected == 0
        while ours.status == "running":
            assert ours.step() is None
        assert ours.nrejected > 0
        assert 0 < ours.h_min <= ours.h_max < 5.0

    def test_package_does_not_import_scipy_integrate(self, tmp_path):
        """Neither importing the package and its CLI nor a `verify` run
        loads scipy.integrate or scipy.interpolate."""
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        code = (
            "import sys\n"
            "import solitonforge, solitonforge.cli\n"
            "heavy = ('scipy.integrate', 'scipy.interpolate')\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
            "code = solitonforge.cli.main(sys.argv[1:])\n"
            "print(sorted(m for m in heavy if m in sys.modules), code)\n"
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
        assert lines[-1] == "[] 0"


def test_verify_loads_no_scipy(tmp_path):
    """Importing the package and its CLI and running `verify` load no
    scipy module at all: the stepper's linear algebra is numpy's."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "import solitonforge, solitonforge.cli\n"
        "code = solitonforge.cli.main(sys.argv[1:])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), code)\n"
    )
    config = os.path.join(CONFIG_DIR, "bryant_d2.json")
    proc = subprocess.run(
        [sys.executable, "-c", code, "verify", "--config", config,
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[] 0"


class TestFusedNewtonUpdate:
    """The fused real operator K against the eigenbasis form of the
    simplified Newton update: one real and one complex solve."""

    @staticmethod
    def _reference(J, h, F, W):
        n = J.shape[0]
        inv_real = np.linalg.inv(radau.MU_REAL / h * np.eye(n) - J)
        inv_complex = np.linalg.inv(radau.MU_COMPLEX / h * np.eye(n) - J)
        f_real = F.dot(radau.TI[0]) - radau.MU_REAL / h * W[0]
        f_complex = (F.dot(radau.TI[1] + 1j * radau.TI[2])
                     - radau.MU_COMPLEX / h * (W[1] + 1j * W[2]))
        dW_complex = inv_complex @ f_complex
        return inv_real, np.stack([inv_real @ f_real, dW_complex.real, dW_complex.imag])

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_eigenbasis_update(self, n):
        rng = np.random.default_rng(n)
        solver = radau.Radau(lambda s, y: -y, lambda s, y: -np.eye(n), 0.0,
                             np.ones(n), t_bound=1.0, rtol=1e-6, atol=1e-9)
        for _ in range(20):
            J = rng.standard_normal((n, n))
            h = 10.0 ** rng.uniform(-4, 1)
            F = rng.standard_normal((n, 3))      # one stage per column
            W = rng.standard_normal((3, n))
            nlu = solver.nlu
            LU_real, K = solver._newton_operators(h, J)
            assert solver.nlu == nlu + 2
            inv_real, expected = self._reference(J, h, F, W)
            assert K.shape == (3 * n, 6 * n)
            assert np.array_equal(LU_real, inv_real)
            got = K @ np.concatenate([F.T.ravel(), (W / h).ravel()])
            assert np.abs(got.reshape(3, n) - expected).max() <= (
                1e-13 * np.abs(expected).max())

    @staticmethod
    def _solve(fun, Z0):
        solver = radau.Radau(fun, lambda s, y: -np.eye(2), 0.0, np.ones(2),
                             t_bound=1.0, rtol=1e-3, atol=1e-6)
        h = 0.1
        _, K = solver._newton_operators(h, solver.J)
        scale = solver.atol + solver.rtol * np.abs(solver.y)
        nfev = solver.nfev
        result = solver._solve_collocation(solver.t, solver.y, h, Z0, scale, K)
        assert solver.nfev == nfev + 3
        return result

    def test_non_finite_w_raises(self):
        """A finite F with a non-finite W/h raises the solve's ValueError,
        which flow.integrate turns into StepLimitExceeded."""
        with pytest.raises(ValueError, match=radau._NOT_FINITE):
            self._solve(lambda s, y: np.zeros_like(y), np.full((3, 2), np.nan))

    def test_non_finite_f_ends_unconverged(self):
        """A non-finite stage value ends the iteration unconverged, so the
        stepper retries with a fresh Jacobian or a halved step."""
        fun = lambda s, y: np.full_like(y, np.nan) if y.ndim == 2 else -y
        converged, n_iter, Z, rate = self._solve(fun, np.zeros((3, 2)))
        assert (converged, n_iter, rate) == (False, 1, None)
        assert np.array_equal(Z, np.zeros((3, 2)))


class TestDenseOutput:
    """The stacked interpolant against scipy's OdeSolution over the same
    per-step Radau polynomials."""

    @pytest.mark.parametrize("name", ["d2_3", "rf_d2_2_3"])
    def test_matches_ode_solution(self, pipeline, name):
        dense = pipeline(name).traj.dense
        ts = dense.ts
        reference = OdeSolution(ts, [
            RadauDenseOutput(ts[k], ts[k + 1], dense.y_old[k], dense.Q[k])
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
        scalar = dense(ts[7])
        assert scalar.shape == (dense.y_old.shape[1],)
        assert np.abs(scalar - reference(ts[7])).max() <= tol
