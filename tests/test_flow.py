"""Seeding and adaptive integration of the phase flow."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy.integrate import OdeSolution, solve_ivp
from scipy.integrate._ivp.radau import RadauDenseOutput

import solitonforge as sf
from solitonforge import cli, flow, geometry, manifold, oracle, phase, radau, verify
from solitonforge.errors import (
    InvariantViolated,
    OutOfRange,
    SeedLeavesWrongRegion,
    StepLimitExceeded,
    ValidationError,
)

from conftest import make_spec, reference_reduced_field

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
    @pytest.mark.parametrize("y0", [
        np.array([0.5, np.nan, 0.5, 0.5]),   # not finite
        np.array([0.5, 0.5, 0.5]),           # one entry short of 2r = 4
        np.full((2, 4), 0.5),                # a stack, not one state
        ["a", "b", "c", "d"],                # not numbers
        [[0.5], [0.5, 0.5], 0.5, 0.5],       # ragged
    ])
    def test_bad_start_state_names_y0(self, monkeypatch, y0):
        """A start state that is not a finite vector of 2r entries is a
        ValidationError naming y0, raised before the field is called."""
        monkeypatch.setattr(phase, "rhs", lambda *args: pytest.fail("rhs called"))
        with pytest.raises(ValidationError, match=r"^y0 must be a finite vector of 4"):
            flow.integrate(make_spec("d2_3"), y0)

    @pytest.mark.parametrize("s_max", [0.0, -1.0])
    def test_s_max_not_positive_names_s_max(self, monkeypatch, s_max):
        """A spec built without validate_spec may have s_max <= 0, where
        every trajectory starts: integrate rejects it, naming s_max,
        before the field is called."""
        spec = dataclasses.replace(make_spec("d2_3"), s_max=s_max)
        y0 = flow.seed(spec)
        monkeypatch.setattr(phase, "rhs", lambda *args: pytest.fail("rhs called"))
        with pytest.raises(ValidationError, match=r"^s_max must be > 0, got "):
            flow.integrate(spec, y0)

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
        """Each Newton iteration evaluates its seven stages in one
        phase.rhs call on a (7, 2r) stack; every other call is one state.
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
        solver = solvers[0]   # the flow's; a soliton run's tail has its own, on its own field
        stacked = shapes.count((radau.STAGES, 4))
        single = shapes.count((4,))
        assert radau.STAGES == 7
        assert stacked > 0 and stacked + single == len(shapes)
        seed_calls = 0 if name == "d2_3" else 1
        assert radau.STAGES * stacked + single == solver.nfev + seed_calls

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
        the accepted steps its segment of the trajectory records."""
        solvers = []

        class Recorded(radau.Radau):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                solvers.append(self)

        monkeypatch.setattr(flow, "Radau", Recorded)
        radau_segment, tail = sf.run(_config_spec("bryant_d2")).segments
        solver, tail_solver = solvers
        h = np.diff(radau_segment.ts)
        assert h.size == radau_segment.steps
        assert np.all((solver.h_min <= h) & (h <= solver.h_max))
        assert (solver.h_min, solver.h_max) == (h.min(), h.max())
        assert type(solver.h_min) is type(solver.h_max) is float
        h = np.diff(tail.dense.ts)
        assert (tail_solver.h_min, tail_solver.h_max) == (h.min(), h.max())

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

    def test_no_segments_is_out_of_range(self):
        """A run seeded at a rest point ends "stationary" with no segments,
        so it has no dense output to evaluate."""
        traj = sf.run(make_spec("d2_3").with_seed_coeffs((0.0, 0.0)))
        assert traj.termination == "stationary" and traj.segments == []
        with pytest.raises(OutOfRange, match="no dense output"):
            traj.dense([traj.s[0]])

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


class TestTail:
    """The tail segment on the slow manifold."""

    def test_segments_meet_at_the_switch(self, pipeline):
        """The Radau segment ends at the first sample with |y| below
        TAIL_SWITCH, where the tail starts; the trajectory's samples are
        the Radau segment's and then the tail's after the switch."""
        traj = pipeline("d2_3").traj
        radau_segment, tail = traj.segments
        assert isinstance(radau_segment, flow.RadauSegment)
        assert isinstance(tail, flow.TailSegment)
        norms = np.linalg.norm(radau_segment.samples, axis=1)
        assert norms[-1] < flow.TAIL_SWITCH <= norms[-2]
        assert tail.s[0] == radau_segment.ts[-1]
        assert np.array_equal(traj.s, np.concatenate([radau_segment.ts, tail.s[1:]]))
        assert traj.n_steps == radau_segment.steps + tail.s.size - 1
        assert traj.radau_steps == radau_segment.steps
        assert traj.tail_steps == tail.steps < tail.s.size

    @pytest.mark.parametrize("name", ["d2", "d2_2_3"])
    def test_samples_on_a_fixed_grid(self, pipeline, name):
        """Between the switch and the end the tail's samples are the points
        10^(k/12) of s, every one of them in that range."""
        tail = pipeline(name).traj.segments[1]
        k = np.round(np.log10(tail.s[1:-1]) * flow.TAIL_SAMPLES_PER_DECADE)
        assert np.array_equal(np.diff(k), np.ones(k.size - 1))
        assert np.array_equal(tail.s[1:-1], 10.0 ** (k / flow.TAIL_SAMPLES_PER_DECADE))
        assert np.array_equal(tail.taus[1:-1], np.log(tail.s[1:-1]))
        # the grid points just outside lie within TAIL_END_ULPS of an end, or beyond it
        before, after = np.log(10.0 ** ((k[[0, -1]] + [-1, 1]) / flow.TAIL_SAMPLES_PER_DECADE))
        ulps = flow.TAIL_END_ULPS
        assert before <= tail.taus[0] + ulps * math.ulp(tail.taus[0])
        assert after >= tail.taus[-1] - ulps * math.ulp(tail.taus[-1])

    @pytest.mark.parametrize("name", ["d2", "eps2-1e-30"])
    def test_no_sample_within_ulps_of_an_end(self, name):
        """On d2 (d = 2, the spec of bryant_d2), and on d2_3 with eps_2 =
        1e-30, where Y_2 is negligible, |y| crosses origin_tol at s = 1e16,
        a point of the sample grid, to the ulp.  That point is dropped:
        every tail interval has dtau > 0, the first and last more than
        TAIL_END_ULPS ulps, and the profile's t increases."""
        spec = (make_spec("d2") if name == "d2"
                else make_spec("d2_3").with_seed_coeffs((-1e-6, 1e-30)))
        traj = sf.run(spec)
        tail = traj.segments[1]
        assert traj.termination == "origin"
        assert tail.s[-1] == pytest.approx(1e16, rel=1e-14)
        assert 1e16 not in tail.s
        dtau = np.diff(tail.taus)
        assert np.all(dtau > 0)
        assert dtau[0] > flow.TAIL_END_ULPS * math.ulp(tail.taus[0])
        assert dtau[-1] > flow.TAIL_END_ULPS * math.ulp(tail.taus[-1])
        assert np.all(np.diff(sf.build_profile(traj, spec).t) > 0)

    def test_ends_where_the_norm_crosses_origin_tol(self, pipeline):
        """The last sample lies where |y| falls through origin_tol on the
        tail's dense output, to a few ulps."""
        case = pipeline("d2_3")
        traj, tol = case.traj, case.spec.origin_tol
        assert traj.termination == "origin"
        y_end = np.concatenate([traj.X[-1], traj.Y[-1]])
        assert abs(np.linalg.norm(y_end) / tol - 1.0) <= 1e-14
        assert np.linalg.norm(y_end) <= tol
        tail = traj.segments[1]
        before = tail.states_at_tau(np.array(tail.taus[-1] - 1e-9))
        assert np.linalg.norm(before) > tol

    def test_states_on_the_graph(self, pipeline):
        """Every tail sample is X = h(Y^2) with Y = sqrt(z/s), up to the
        rounding of Y^2, and the trajectory's dense output gives the
        samples back."""
        case = pipeline("d2_2_3")
        traj = case.traj
        k = traj.segments[0].steps
        dims = tuple(case.spec.dims.tolist())
        X = manifold.on_graph(dims, traj.Y[k + 1:] ** 2)
        assert np.abs(traj.X[k + 1:] / X - 1.0).max() <= 1e-15
        y = traj.dense(traj.s)
        samples = np.hstack([traj.X, traj.Y]).T
        # the switch, on a segment boundary, is the Radau segment's
        assert np.abs(y[:, :k + 1] - samples[:, :k + 1]).max() <= 1e-14
        assert np.abs(y[:, k + 1:] / samples[:, k + 1:] - 1.0).max() <= 1e-13

    def test_quadrature_nodes(self, pipeline):
        """The tail's nodes at fractions 0 and 1 of an interval are its
        samples, and ds/dx = s dtau."""
        tail = pipeline("d2_3").traj.segments[1]
        y, ds_dx = tail.at_fractions(np.array([0.0, 0.5, 1.0]))
        samples = tail.states_at_tau(tail.taus)
        assert np.array_equal(y[:, :, 0], samples[:-1])
        assert np.abs(y[:, :, 2] / samples[1:] - 1.0).max() <= 1e-14
        dtau = np.diff(tail.taus)
        assert np.allclose(ds_dx[:, 0], (tail.s[:-1]) * dtau, rtol=1e-13)
        assert np.allclose(ds_dx[:, 1], np.exp(tail.taus[:-1] + 0.5 * dtau) * dtau, rtol=1e-15)

    @pytest.mark.parametrize("name", ["d2", "d2_3"])
    def test_tail_accuracy(self, pipeline, name):
        """From the switch state, the tail's Y agrees with the Radau stepper
        of the phase flow at rtol = 1e-13 and an atol far below |Y| to
        1e-7 relative (measured: 1.7e-14 on d2 and 3.3e-13 on d2_3; the
        phase flow's stepper at the shipped tolerances reaches 2.2e-6 and
        2.6e-6)."""
        case = pipeline(name)
        traj, r = case.traj, case.spec.r
        sqrt_d = np.sqrt(case.spec.dims)
        k = traj.segments[0].steps
        ref = radau.Radau(lambda y: phase.rhs(y, sqrt_d),
                          lambda y: phase.rhs_jacobian(y, sqrt_d),
                          traj.s[k], np.concatenate([traj.X[k], traj.Y[k]]),
                          t_bound=traj.s[-1], rtol=1e-13, atol=1e-25)
        ts, ys, Qs = [ref.t], [ref.y], []
        while ref.status == "running":
            ref.step()
            ts.append(ref.t)
            ys.append(ref.y)
            Qs.append(ref.dense)
        Y = flow.RadauSegment(np.array(ts), np.array(ys), np.array(Qs), ref.nfev)(
            traj.s[k + 1:])[r:].T
        assert np.abs(traj.Y[k + 1:] / Y - 1.0).max() <= 1e-7

    @pytest.mark.parametrize("name", ["bryant_d2", "r3_d2_2_3"])
    def test_stop_test_evaluates_the_graph_at_most_once(self, monkeypatch, name):
        """|y|^2 = |X|^2 + sum(w) is no less than sum(w), so the tail's stop
        test evaluates the graph X = h(w) only once sum(w) is below
        origin_tol^2: on these configs once in all, not after every one
        of their 7 and 16 tail steps."""
        inside_stop, calls, stops = [False], [], []
        real_on_graph, real_run_segment = manifold.on_graph, flow.run_segment

        def on_graph(dims, w):
            if inside_stop[0]:
                calls.append(w)
            return real_on_graph(dims, w)

        def run_segment(solver, stop):
            def counted(t, y):
                stops.append(t)
                inside_stop[0] = True
                try:
                    return stop(t, y)
                finally:
                    inside_stop[0] = False
            return real_run_segment(solver, counted)

        monkeypatch.setattr(manifold, "on_graph", on_graph)
        monkeypatch.setattr(flow, "run_segment", run_segment)
        traj = sf.run(_config_spec(name))
        assert traj.termination == "origin"
        assert len(stops) == traj.tail_steps == SHIPPED_TAIL_WORK[name][0]
        assert stops == traj.segments[1].dense.ts[1:].tolist()
        assert len(calls) <= 1

    @pytest.mark.parametrize("eps2", [1e-30, 1e-158])
    def test_negligible_y_keeps_the_tail_short(self, eps2):
        """r2_d2_3's factors with a negligible Y_2 start the tail with a
        huge u_2 = 1/(s Y_2^2), which U carries: the tail takes at most 20
        steps (measured: 10), as at the shipped seed, not the hundred or
        more that the remainder u - U took."""
        spec = _config_spec("r2_d2_3").with_seed_coeffs((-1e-6, eps2))
        traj = sf.run(spec)
        assert traj.termination == "origin"
        assert traj.tail_steps <= 20

    def test_crossing_returns_an_exact_zero_at_once(self):
        """Where f is exactly 0 the crossing is found: no evaluation
        follows the one that hit it."""
        calls = []

        def f(x):
            calls.append(x)
            return 1.0 - x

        assert flow._crossing(f, 0.0, 2.0) == 1.0
        assert calls == [0.0, 2.0, 1.0]

    def test_ends_at_s_max(self):
        """An s_max inside the tail ends the run there, with its sample."""
        spec = dataclasses.replace(make_spec("d2_3"), s_max=1e10)
        traj = sf.run(spec)
        assert traj.termination == "s_max"
        assert traj.s[-1] == 1e10
        assert traj.segments[1].s[-2] < 1e10

    def test_step_budget_counts_the_tail(self, pipeline):
        """max_steps bounds the steps of both segments together."""
        traj = pipeline("d2").traj
        spec = make_spec("d2")
        controls = spec.step_controls
        for budget, raises in ((traj.radau_steps + traj.tail_steps - 1, True),
                               (traj.radau_steps + traj.tail_steps, False)):
            limited = dataclasses.replace(
                spec, step_controls=dataclasses.replace(controls, max_steps=budget))
            if raises:
                with pytest.raises(StepLimitExceeded, match=f"within {budget} steps"):
                    sf.run(limited)
            else:
                assert sf.run(limited).n_steps == traj.n_steps

    @pytest.mark.parametrize("invariant, bad", [("Y_positive", "Y"), ("L_decreasing", "L")])
    def test_tail_samples_pass_the_monitors(self, invariant, bad):
        """A tail sample with a non-positive Y, or a larger L than the one
        before it, ends the run with the monitor's name."""
        y = np.array([[0.01, 0.01], [0.005, 0.005], [0.001, 0.002]])
        s = np.array([1e4, 2e4, 3e4])
        if bad == "Y":
            y[2, 1] = -1e-3
        else:
            y[2] = [0.01, 0.02]
        with pytest.raises(InvariantViolated) as err:
            flow._check_tail(y, s, 1)
        assert err.value.invariant == invariant
        assert err.value.s == 3e4

    def test_ricci_flat_has_one_segment(self, pipeline):
        traj = pipeline("rf_d2_3").traj
        [segment] = traj.segments
        assert isinstance(segment, flow.RadauSegment)
        assert traj.tail_steps == 0 and traj.radau_steps == traj.n_steps


def _config_spec(name):
    return cli.parse_config(os.path.join(CONFIG_DIR, f"{name}.json")).spec


# (n_steps, nfev, njev, nlu, nrejected) of each shipped single-run config:
# n_steps counts the intervals between the trajectory's samples, the tail's
# among them, and the rest is the flow's Radau stepper's work
SHIPPED_WORK = {
    "bryant_d2": (218, 1644, 75, 300, 1),
    "r1_d3": (221, 1702, 79, 316, 3),
    "r1_d4": (219, 1679, 77, 308, 3),
    "r1_d9": (217, 1650, 75, 300, 2),
    "r2_d2_3": (223, 1651, 76, 304, 2),
    "r2_d3_5": (225, 1694, 78, 312, 3),
    "r3_d2_2_3": (226, 1708, 79, 316, 4),
    "ricci_flat_d2_3": (45, 880, 45, 180, 0),
}
# (steps, nfev) of the tail's Radau run of each shipped soliton config
SHIPPED_TAIL_WORK = {
    "bryant_d2": (6, 92),
    "r1_d3": (10, 159),
    "r1_d4": (11, 174),
    "r1_d9": (11, 174),
    "r2_d2_3": (16, 354),
    "r2_d3_5": (15, 325),
    "r3_d2_2_3": (16, 368),
}
# (steps, nfev, njev, nrejected) of the oracle's Radau run of each shipped
# soliton config, on the window of `solitonforge oracle`
SHIPPED_ORACLE_WORK = {
    "bryant_d2": (43, 710, 43, 0),
    "r1_d3": (44, 753, 44, 0),
    "r1_d4": (44, 767, 44, 0),
    "r1_d9": (46, 916, 46, 0),
    "r2_d2_3": (18, 391, 19, 1),
    "r2_d3_5": (20, 463, 22, 2),
    "r3_d2_2_3": (19, 434, 21, 2),
}


def _tail_work(traj):
    """(steps, nfev) of each tail segment of a trajectory."""
    return [(seg.steps, seg.nfev) for seg in traj.segments
            if isinstance(seg, flow.TailSegment)]


@pytest.mark.parametrize("name", sorted(SHIPPED_WORK))
def test_shipped_config_work_is_pinned(monkeypatch, name):
    """Steps, right-hand-side and Jacobian evaluations, factorisations and
    rejected attempts on each shipped config, and the steps and field
    evaluations of its tail, as literals.  Changing a literal means the
    change altered the integrators' work (their step or Newton decisions,
    not only their speed): report the old and new values in CHANGES.md."""
    solvers = []

    class Recorded(radau.Radau):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            solvers.append(self)

    monkeypatch.setattr(flow, "Radau", Recorded)
    traj = sf.run(_config_spec(name))
    s = solvers[0]   # the flow's stepper; the tail's, if any, follows it
    assert len(solvers) == len(traj.segments)
    assert (traj.n_steps, s.nfev, s.njev, s.nlu, s.nrejected) == SHIPPED_WORK[name]
    tail = [SHIPPED_TAIL_WORK[name]] if name in SHIPPED_TAIL_WORK else []
    assert _tail_work(traj) == tail
    assert traj.segments[0].nfev == s.nfev


@pytest.mark.parametrize("name", sorted(SHIPPED_ORACLE_WORK))
def test_shipped_oracle_work_is_pinned(monkeypatch, tmp_path, name):
    """As test_shipped_config_work_is_pinned, for the oracle's stepper in
    the `oracle` command on each shipped soliton config: its steps,
    right-hand-side and Jacobian evaluations and rejected attempts, and
    four factorisations per Jacobian."""
    solvers = []

    class Recorded(radau.Radau):
        steps = 0

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            solvers.append(self)

        def step(self):
            super().step()
            self.steps += 1

    monkeypatch.setattr(oracle, "Radau", Recorded)
    config = os.path.join(CONFIG_DIR, f"{name}.json")
    assert cli.main(["oracle", "--config", config, "--out", str(tmp_path)]) == 0
    (s,) = solvers
    assert (s.steps, s.nfev, s.njev, s.nrejected) == SHIPPED_ORACLE_WORK[name]
    assert s.nlu == 4 * s.njev


# The same counts for specs that no entry of SHIPPED_WORK covers: the r = 3
# Ricci-flat fixture spec rf_d2_2_3, and the five points of
# configs/sweep_d2_3.json in ratio order, as `solitonforge sweep` runs them,
# each point's Radau work followed by its tail's (steps, nfev)
WIDER_WORK = {
    "rf_d2_2_3": [(44, 865, 44, 176, 0)],
    "sweep_d2_3": [
        (223, 1651, 76, 304, 2, 15, 332),
        (223, 1651, 76, 304, 2, 16, 354),
        (225, 1716, 79, 316, 3, 14, 303),
        (223, 1651, 76, 304, 2, 13, 281),
        (225, 1738, 81, 324, 4, 12, 245),
    ],
}


@pytest.mark.parametrize("name", sorted(WIDER_WORK))
def test_wider_work_is_pinned(monkeypatch, tmp_path, name):
    """As test_shipped_config_work_is_pinned, for WIDER_WORK; the sweep's
    points are counted through the `sweep` command itself."""
    solvers = []
    trajectories = []

    class Recorded(radau.Radau):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            solvers.append(self)

    integrate = flow.integrate

    def recorded(spec, y0):
        first = len(solvers)   # the flow's stepper; the tail's follows it
        trajectories.append((integrate(spec, y0), solvers[first]))
        return trajectories[-1][0]

    monkeypatch.setattr(flow, "Radau", Recorded)
    monkeypatch.setattr(flow, "integrate", recorded)
    if name == "sweep_d2_3":
        config = os.path.join(CONFIG_DIR, f"{name}.json")
        assert cli.main(["sweep", "--config", config, "--out", str(tmp_path)]) == 0
        steps = [json.loads((tmp_path / f"sweep_{k:02d}" / "profile.json").read_text())
                 ["n_steps"] for k in range(len(trajectories))]
    else:
        steps = [sf.run(make_spec(name)).n_steps]
    work = [(n, s.nfev, s.njev, s.nlu, s.nrejected) + sum(_tail_work(traj), ())
            for n, (traj, s) in zip(steps, trajectories)]
    assert work == WIDER_WORK[name]


TOY_JACOBIAN = np.array([[0.0, 1.0], [-1.0, -10.0]])


def _toy(jac=lambda y: TOY_JACOBIAN, **kwargs):
    """The stepper on y'' + 10 y' + y = 0, y(0) = (1, 0), over [0, 5];
    ``jac`` replaces its exact Jacobian."""
    fun = lambda y: np.stack([y[..., 1], -y[..., 0] - 10.0 * y[..., 1]], axis=-1)
    args = dict(t_bound=5.0, rtol=1e-6, atol=1e-9)
    args.update(kwargs)
    return radau.Radau(fun, jac, 0.0, [1.0, 0.0], **args)


# Three of perfbench's seed-101 family inputs, g00p3, g01p3 and g22p1, as
# (dims, seed_coeffs) with lambda = dim - 1
GENERATED_SPECS = {
    "g00p3": ((9, 2), (-7.516127318140831e-07, 5.400305229916673e-07)),
    "g01p3": ((5, 3, 5), (-8.129374320859866e-06, 7.836026441190889e-06,
                          6.157368878526415e-05)),
    "g22p1": ((9, 6), (-3.6888369199687085e-07, 8.463906292772232e-07)),
}


class TestAccuracy:
    """The stepper's contract: accuracy, checked against a tight
    reference integration, a tolerance ladder and a closed form.  The
    fixture specs d2, d9, d2_3, d2_2_3 and rf_d2_3 are those of the
    shipped configs bryant_d2, r1_d9, r2_d2_3, r3_d2_2_3 and
    ricci_flat_d2_3."""

    @pytest.mark.parametrize("name", ["d2", "d9", "d2_3", "d2_2_3", "rf_d2_3"])
    def test_local_error_within_the_step_error_scale(self, pipeline, name):
        """Every 7th accepted Radau step's own end, before any projection,
        agrees with the stepper run at rtol = atol = 1e-13 from the same
        start over the same interval, to within a hundredth of the error
        scale atol + rtol max(|y_k|, |y_ref|) in the RMS norm (measured:
        at most 1.3e-4, d9)."""
        case = pipeline(name)
        dense, sc = case.traj.segments[0], case.spec.step_controls
        sqrt_d = np.sqrt(case.spec.dims)
        worst = 0.0
        for k in range(0, dense.steps, 7):
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

    @pytest.mark.parametrize("name", sorted(SHIPPED_TAIL_WORK))
    def test_tail_against_a_tight_reference(self, name):
        """From the switch state, the tail's Y at its samples agrees to
        1e-11 relative with the flow on the graph in its direct form
        (``conftest.reference_reduced_field``, dz/dtau) on scipy's DOP853
        at rtol 1e-13 and atol 1e-22 (measured: 4.7e-14 on bryant_d2 to
        2.6e-12 on r2_d2_3)."""
        spec = _config_spec(name)
        traj = sf.run(spec)
        radau_segment, tail = traj.segments
        k = radau_segment.steps
        z0 = tail.s[0] * traj.Y[k] * traj.Y[k]
        field = reference_reduced_field(tuple(spec.dims.tolist()))
        ref = solve_ivp(lambda tau, z: field(tau, z.tolist()), (tail.taus[0], tail.taus[-1]),
                        z0, method="DOP853", rtol=1e-13, atol=1e-22, dense_output=True)
        Y = np.sqrt(ref.sol(tail.taus[1:]) / tail.s[1:]).T
        assert np.abs(traj.Y[k + 1:] / Y - 1.0).max() <= 1e-11

    @pytest.mark.parametrize("name", ["d2", "d9", "d2_3", "d2_2_3"])
    def test_verify_checks_converge(self, pipeline, name):
        """Tightening rtol = atol from 1e-10 to 1e-12 moves every verify
        check with a tolerance by less than 1% of it (measured: at most
        0.01%, slow_manifold_offset on d2), and every tolerance-0
        check passes on both runs."""
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

    @pytest.mark.parametrize("name", sorted(GENERATED_SPECS))
    def test_verify_checks_converge_on_generated_specs(self, name):
        """As test_verify_checks_converge, on three generated family specs
        with long steps near the seed.  Read at the samples nearest the
        Richardson nodes, with |L| windows cut between samples, their
        noncollapsing_factors and seed_ratio moved by up to 38% and 33% of
        their tolerances (measured now: at most 0.43%,
        potential_boundary_value on g00p3)."""
        dims, coeffs = GENERATED_SPECS[name]
        spec = sf.ProblemSpec(factors=tuple(sf.FactorSpec(d, d - 1.0) for d in dims),
                              seed_coeffs=coeffs)
        runs = []
        for tol in (1e-10, 1e-12):
            spec = dataclasses.replace(spec, step_controls=dataclasses.replace(
                spec.step_controls, rtol=tol, atol=tol))
            traj = sf.run(spec)
            profile = sf.build_profile(traj, spec)
            curv = geometry.sectional_curvatures(profile, spec)
            runs.append(verify.run_suite(traj, profile, curv, spec).checks)
        coarse, fine = runs
        assert [c.name for c in coarse] == [c.name for c in fine]
        for a, b in zip(coarse, fine):
            if a.tolerance > 0:
                assert abs(a.measured - b.measured) < 1e-2 * a.tolerance, a.name
            else:
                assert a.passed and b.passed, a.name

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    def test_closed_form(self, tol):
        """On y'' + 10 y' + y = 0, y(0) = (1, 0), the state at t = 5
        matches the exact solution to within a hundredth of its error
        scale atol + rtol |y| (measured: at most 6.2e-6)."""
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
        assert len(solvers) == 2   # the flow's and the tail's
        assert all(solver.nlu > 0 for solver in solvers)
        assert sum(solver.nlu for solver in solvers) == sum(matrices)

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
        """Every step attempt, accepted or rejected, takes exactly one
        Jacobian, bit for bit at its own warm start's prediction of its
        end, ``y + _warm_start(h)[-1]``, or at y0 while no step has been
        accepted (its Z0 is zero).  So ``njev`` is the accepted steps
        plus ``nrejected``, and ``nlu`` is four times ``njev``.  The run
        has attempts that fail the error test (a first step as long as
        the interval) and one whose Newton solve fails (a non-finite
        stage stack)."""
        events = []   # ("warm", y + Z0[-1]), ("jac", y) and ("solve",), in turn
        failed = []

        def jac(y):
            events.append(("jac", np.array(y)))
            return TOY_JACOBIAN

        solver = _toy(jac=jac)
        solver.h_abs = 5.0
        warm_start, fun, solve = solver._warm_start, solver._fun, solver._solve_collocation

        def recorded_warm_start(h):
            Z0 = warm_start(h)
            events.append(("warm", solver.y + Z0[-1]))
            return Z0

        def recorded_solve(*args):
            events.append(("solve",))
            return solve(*args)

        def stages(y):
            # one non-finite stage stack, after the first accepted step,
            # fails that attempt's Newton solve
            if y.ndim == 2 and solver.dense is not None and not failed:
                failed.append(solver.t)
                return np.full_like(y, np.nan)
            return fun(y)

        solver._warm_start, solver._fun = recorded_warm_start, stages
        solver._solve_collocation = recorded_solve
        steps = 0
        while solver.status == "running":
            solver.step()
            steps += 1

        attempts = [[]]
        for event in events:
            if event[0] == "solve":
                attempts.append([])
            else:
                attempts[-1].append(event)
        assert attempts.pop() == []
        first = 0
        for i, attempt in enumerate(attempts):
            kinds = [event[0] for event in attempt]
            if kinds == ["jac"]:   # no step accepted yet
                assert first == i
                assert attempt[0][1].tobytes() == np.array([1.0, 0.0]).tobytes()
                first += 1
            else:
                assert kinds == ["warm", "jac"]
                assert attempt[0][1].tobytes() == attempt[1][1].tobytes()
        assert first > 1 and len(failed) == 1
        assert solver.njev == len(attempts) == steps + solver.nrejected
        assert solver.nlu == 4 * solver.njev

    def test_package_loads_no_scipy(self, tmp_path):
        """Importing the package and its CLI loads no scipy module at all,
        and neither does a `verify` run nor an `oracle` run after it: the
        stepper's linear algebra is numpy's.  Nor does the run load
        numpy.ma, which the first np.unique call imports."""
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
            "for command in ('verify', 'oracle'):\n"
            "    code = solitonforge.cli.main([command] + sys.argv[1:])\n"
            "    print('loaded', loaded(), code)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        config = os.path.join(CONFIG_DIR, "bryant_d2.json")
        proc = subprocess.run(
            [sys.executable, "-c", code, "--config", config, "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "[]"
        assert lines[-1] == "False"
        assert [line for line in lines if line.startswith("loaded")] == [
            "loaded [] 0", "loaded [] 0"]

    def test_underflowing_step_raises_too_small_step(self, monkeypatch):
        """When every stacked stage is non-finite, no Newton iteration
        converges and the step size halves until it is below the spacing
        of floats at t: step() raises TOO_SMALL_STEP.  A run reports a
        stepper's ValueError as StepLimitExceeded with its message; from
        s = 0 the same stages end in the stepper's non-finite error, since
        MU/h overflows before the step size falls below ten ulps of s."""
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
        with pytest.raises(StepLimitExceeded) as err:
            sf.run(make_spec("d2_3"))
        assert str(err.value).endswith(radau._NOT_FINITE)

    @pytest.mark.parametrize("case", ["toy", "decay", "tiny_y", "constant", "short"])
    def test_initial_step_is_scipys(self, case):
        """`_initial_step` is scipy's ``select_initial_step`` at order 7,
        forward and with no maximum step, bit for bit: on the toy problem
        (bound by 100 h0), on a decay (bound by the order-7 estimate h1),
        on a state below the error scale (h0 = 1e-6), on a constant field
        (f0 = 0) and on an interval shorter than every candidate step."""
        from scipy.integrate._ivp.common import select_initial_step

        toy = lambda y: np.stack([y[..., 1], -y[..., 0] - 10.0 * y[..., 1]], axis=-1)
        fun, y0, length, tol = {
            "toy": (toy, [1.0, 0.0], 5.0, 1e-6),
            "decay": (lambda y: -y, [1.0, 2.0], 5.0, 1e-3),
            "tiny_y": (toy, [1e-18, -3e-19], 5.0, 1e-6),
            "constant": (lambda y: np.zeros_like(y), [2.0, -1.0], 5.0, 1e-8),
            "short": (toy, [1.0, 0.5], 1e-9, 1e-3),
        }[case]
        y0 = np.array(y0)
        f0 = fun(y0)
        ours = radau._initial_step(fun, y0, f0, length, tol, tol * 1e-3)
        theirs = select_initial_step(lambda t, y: fun(y), 0.0, y0, length, np.inf,
                                     f0, 1, 7, tol, tol * 1e-3)
        assert float(ours) == float(theirs)
        if case == "short":
            assert ours == length

    def test_run_segment_reaches_the_bound(self):
        """Without a true stop test, `run_segment` steps until the stepper
        finishes: the segment ends at the bound, holds every accepted step
        and the stepper's nfev, and its interpolant follows exp(-t)."""
        solver = radau.Radau(lambda y: -y, lambda y: -np.eye(2), 0.0, [1.0, 2.0],
                             t_bound=5.0, rtol=1e-10, atol=1e-10)
        seen = []
        segment, stopped = radau.run_segment(
            solver, lambda t, y: seen.append(t) or False)
        assert not stopped and solver.status == "finished"
        assert segment.ts[0] == 0.0 and segment.ts[-1] == 5.0
        assert seen == segment.ts[1:].tolist()
        assert segment.steps == segment.ts.size - 1 == len(seen)
        assert segment.nfev == solver.nfev
        assert np.array_equal(segment.samples[-1], solver.y)
        t = np.array([0.5, 2.5, 5.0])
        exact = np.exp(-t)[:, None] * [1.0, 2.0]
        assert np.abs(segment(t).T - exact).max() <= 1e-9

    def test_run_segment_stops_at_a_step_end(self):
        """The stop test sees every accepted step end; its first true
        answer ends the run there, before the bound."""
        solver = radau.Radau(lambda y: -y, lambda y: -np.eye(1), 0.0, [1.0],
                             t_bound=10.0, rtol=1e-8, atol=1e-8)
        seen = []

        def stop(t, y):
            seen.append((t, y[0]))
            return y[0] < 0.5

        segment, stopped = radau.run_segment(solver, stop)
        assert stopped and solver.status == "running"
        assert [t for t, _ in seen] == segment.ts[1:].tolist()
        assert seen[-1][1] < 0.5 <= seen[-2][1]
        assert math.log(2.0) < segment.ts[-1] < 10.0

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_no_buffer_reaches_a_result(self, n):
        """The stepper rewrites its operators, their inputs and the Newton
        product on every attempt and iteration; none of them reaches a
        result.  Each step's ``y`` and ``dense``, and the state the stop
        test is handed, still equal their copies taken on arrival 20
        steps later and in the finished segment, whose samples and
        coefficients are those copies."""
        solver = _linear_solver(n)
        arrived = []   # (the step's y, dense and stop state), and their copies

        def stop(t, y):
            results = (solver.y, solver.dense, y)
            arrived.append((results, [a.copy() for a in results]))
            if len(arrived) > 20:
                results, copies = arrived[-21]
                assert all(a.tobytes() == c.tobytes() for a, c in zip(results, copies))
            return False

        segment, _ = radau.run_segment(solver, stop)
        assert segment.steps == len(arrived) > 40
        for k, (results, copies) in enumerate(arrived):
            assert all(a.tobytes() == c.tobytes() for a, c in zip(results, copies))
            assert segment.samples[k + 1].tobytes() == copies[0].tobytes()
            assert segment.Q[k].tobytes() == copies[1].tobytes()


class TestFusedNewtonUpdate:
    """The stage-space Newton operator and the error operator against the
    eigenbasis form of the simplified Newton update (one real and three
    complex solves) and the textbook error estimate."""

    @staticmethod
    def _reference(J, h, F, W):
        n = J.shape[0]
        inv_real = np.linalg.inv(radau.MU_REAL / h * np.eye(n) - J)
        f_real = F.dot(radau.TI[0]) - radau.MU_REAL / h * W[0]
        dW = [inv_real @ f_real]
        for i, mu in zip(range(1, radau.STAGES, 2), radau.MU_COMPLEX):
            inv_complex = np.linalg.inv(mu / h * np.eye(n) - J)
            f_complex = (F.dot(radau.TI[i] + 1j * radau.TI[i + 1])
                         - mu / h * (W[i] + 1j * W[i + 1]))
            dW_complex = inv_complex @ f_complex
            dW += [dW_complex.real, dW_complex.imag]
        return inv_real, np.stack(dW)

    @staticmethod
    def _kronecker_build(inv):
        """Both operators from the (4, n, n) complex inverses through dense
        Kronecker products with I_n: the right-hand-side map [TI ⊗ I |
        -(M0 ⊗ I)(TI ⊗ I)] as four complex row blocks (the real system's,
        then real + i imag rows of each pair), the inverses times those,
        T ⊗ I times the dW rows, and the real inverse times [I | E ⊗ I]."""
        n = inv.shape[-1]
        s = radau.STAGES
        I = np.identity(n)
        kron_TI = np.kron(radau.TI, I)
        rhs_rows = np.hstack([kron_TI, -np.kron(radau.M0, I).dot(kron_TI)]).reshape(s, n, -1)
        dW = np.matmul(inv, np.concatenate([rhs_rows[:1],
                                            rhs_rows[1::2] + 1j * rhs_rows[2::2]]))
        pairs = np.stack([dW[1:].real, dW[1:].imag], axis=1).reshape(s - 1, n, -1)
        dW_rows = np.concatenate([dW[:1].real, pairs]).reshape(s * n, -1)
        return (inv[0].real.dot(np.hstack([I, np.kron(radau.E, I)])),
                np.vstack([dW_rows, np.kron(radau.T, I).dot(dW_rows)]))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_kronecker_build(self, n):
        """Both operators, assembled block by block from the eight real
        parts of the inverses, agree with the dense Kronecker build to
        1e-15 of its largest entry (measured: at most 2 ulps of it on the
        Newton operator, bit for bit on the error operator)."""
        rng = np.random.default_rng(n)
        solver = radau.Radau(lambda y: -y, lambda y: -np.eye(n), 0.0,
                             np.ones(n), t_bound=1.0, rtol=1e-6, atol=1e-9)
        for _ in range(20):
            J = rng.standard_normal((n, n))
            h = 10.0 ** rng.uniform(-4, 1)
            got = solver._newton_operators(h, J)
            inv = np.linalg.inv(radau._MU[:, :, None] / h * np.eye(n) - J)
            for a, b in zip(got, self._kronecker_build(inv)):
                assert a.shape == b.shape
                assert np.abs(a - b).max() <= 1e-15 * np.abs(b).max()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_eigenbasis_update(self, n):
        """The Newton operator takes [F ; Z/h] to the eigenbasis update dW
        and its image dZ = T dW, and the error operator takes [f ; Z/h] to
        inv_real (f + Z^T E / h), each to 1e-13 of the largest entry, at
        every n the package runs: the flow at 2r, the tail at r + 1, the
        oracle at 2r + 1 and the stepper tests at 1."""
        rng = np.random.default_rng(n)
        solver = radau.Radau(lambda y: -y, lambda y: -np.eye(n), 0.0,
                             np.ones(n), t_bound=1.0, rtol=1e-6, atol=1e-9)
        for _ in range(20):
            J = rng.standard_normal((n, n))
            h = 10.0 ** rng.uniform(-4, 1)
            F = rng.standard_normal((n, radau.STAGES))   # one stage per column
            W = rng.standard_normal((radau.STAGES, n))
            f = rng.standard_normal(n)
            Z = radau.T.dot(W)
            nlu = solver.nlu
            error_op, newton_op = solver._newton_operators(h, J)
            assert solver.nlu == nlu + 4
            inv_real, expected = self._reference(J, h, F, W)
            got = newton_op @ np.concatenate([F.T.ravel(), (Z / h).ravel()])
            dW, dZ = got.reshape(2, radau.STAGES, n)
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
        _, K = solver._newton_operators(h, -np.eye(2))
        scale = solver.atol + solver.rtol * np.abs(solver.y)
        nfev = solver.nfev
        result = solver._solve_collocation(solver.y, h, Z0, scale, K)
        assert solver.nfev == nfev + radau.STAGES
        return result

    def test_non_finite_w_raises(self):
        """A finite F with a non-finite W/h raises the solve's ValueError,
        which flow.integrate turns into StepLimitExceeded."""
        with pytest.raises(ValueError, match=radau._NOT_FINITE):
            self._solve(lambda y: np.zeros_like(y), np.full((radau.STAGES, 2), np.nan))

    def test_non_finite_f_ends_unconverged(self):
        """A non-finite stage value ends the iteration unconverged, so the
        stepper retries with a halved step."""
        fun = lambda y: np.full_like(y, np.nan) if y.ndim == 2 else -y
        converged, n_iter, Z = self._solve(fun, np.zeros((radau.STAGES, 2)))
        assert (converged, n_iter) == (False, 1)
        assert np.array_equal(Z, np.zeros((radau.STAGES, 2)))


def _radau_iia(s):
    """The s-stage Radau IIA constants of radau.py rebuilt in 60-digit
    arithmetic from the Gauss-Radau nodes, each rounded to the nearest
    double: the nodes C, the tableau A, MU_REAL and MU_COMPLEX (the
    eigenvalues of A^-1 with negative imaginary part, by increasing real
    part), T (the eigenvectors, scaled to a last entry of 1; a complex
    pair's columns are the real and imaginary parts of the eigenvector of
    its conjugate), TI = T^-1, M0 = TI A^-1 T, the error weights E =
    A^-T (b_hat - b) / gamma0 and the dense-output matrix P."""
    mp = mpmath
    with mp.workdps(60):
        def shifted_legendre(k):   # P_k(2x - 1) in ascending powers of x
            return [(-1) ** (k + j) * mp.binomial(k, j) * mp.binomial(k + j, j)
                    for j in range(k + 1)]

        p = [a - b for a, b in zip(shifted_legendre(s), shifted_legendre(s - 1) + [0])]
        c = sorted(mp.re(x) for x in mp.polyroots(p[::-1], maxsteps=500, extraprec=400))
        c[-1] = mp.mpf(1)
        V = mp.matrix([[x ** k for k in range(s)] for x in c])
        # A_ij is the integral over [0, c_i] of the j-th Lagrange polynomial,
        # whose power-basis coefficients are the j-th column of V^-1
        A = mp.matrix([[x ** (k + 1) / (k + 1) for k in range(s)] for x in c]) * V ** -1
        A_inv = A ** -1
        mu = mp.eig(A_inv, left=False, right=False)
        small = mp.mpf(10) ** -30
        [mu_real] = [mp.re(z) for z in mu if abs(mp.im(z)) < small]
        mu_complex = sorted((z for z in mu if mp.im(z) < -small), key=mp.re)

        def eigenvector(z):   # of A^-1, with last entry 1
            M = A_inv - z * mp.eye(s)
            head = mp.lu_solve(M[:s - 1, :s - 1], -M[:s - 1, s - 1])
            return [head[i] for i in range(s - 1)] + [mp.mpf(1)]

        columns = [eigenvector(mu_real)]
        for z in mu_complex:
            v = eigenvector(mp.conj(z))
            columns += [[mp.re(x) for x in v], [mp.im(x) for x in v]]
        T = mp.matrix(columns).T
        TI = T ** -1
        # embedded weights on (0, c): gamma0 + sum b_hat = 1 and
        # sum b_hat c^(k-1) = 1/k for k = 2..s
        gamma0 = 1 / mu_real
        b_hat = V.T ** -1 * mp.matrix([mp.mpf(1) / (k + 1) - (gamma0 if k == 0 else 0)
                                       for k in range(s)])
        E = A.T ** -1 * (b_hat - A[s - 1, :].T) / gamma0
        P = (mp.matrix([[x ** (k + 1) for k in range(s)] for x in c]) ** -1).T
        M0 = mp.chop(TI * A_inv * T, tol=mp.mpf(10) ** -40)   # block diagonal

        def rounded(m):
            return np.array(m.tolist(), dtype=float)

        return {"C": np.array(c, dtype=float), "A": rounded(A), "E": rounded(E).ravel(),
                "MU_REAL": float(mu_real),
                "MU_COMPLEX": np.array([complex(float(z.real), float(z.imag))
                                        for z in mu_complex]),
                "T": rounded(T), "TI": rounded(TI), "M0": rounded(M0), "P": rounded(P)}


# The five-stage (order 9) constants that the stepper used before the
# seven-stage ones, as literals; the construction must give them back
FIVE_STAGE = {
    "C": np.array([0.05710419611451768, 0.2768430136381238, 0.5835904323689168,
                  0.8602401356562195, 1.0]),
    "E": np.array([-27.78093394406464, 3.641478498049213, -1.2525477211691187,
                  0.5920031671845428, -0.2]),
    "MU_REAL": 6.2867047517292765,
    "MU_COMPLEX": np.array([3.655694325463572 - 6.543736899360077j,
                            5.70095329867179 - 3.2102656003085497j]),
    "T": np.array([
        [0.013576867344947943, -0.010242047817908826, -0.04767387729029572,
         -0.011478515255229515, 0.01401985889287541],
        [0.0016179004017190875, 0.05017286451737106, 0.09433181918161143,
         -0.007668830749180163, -0.024708578426518527],
        [0.07915785334744721, -0.23053953404341795, -0.1027030453801259,
         0.01939846399882895, -0.08180035370375117],
        [0.41225608268046143, 0.37789390224886127, -0.46674413033249434,
         0.40760117128019907, -0.19968242788680252],
        [1.0, 1.0, 0.0, 1.0, 0.0]]),
    "TI": np.array([
        [27.697693775684087, 12.783337911304406, 3.20848938671343, -0.9514904122489162,
         0.7415504960259897],
        [5.344186437834912, 4.593615567759161, -3.0363603234594243, 1.050660190231459,
         -0.27277861186429625],
        [-3.748059807439805, 3.984965736343885, 1.0444156416080188,
         -1.1840985681379486, 0.44991777015678036],
        [-33.041880213519, -17.376953479063566, -0.17212906325400557,
         -0.09916977798254265, 0.5312281158383066],
        [8.611443979875292, -9.699991409528808, -1.9147286396968743, -2.41869200608494,
         1.0474634879353375]]),
    "P": np.array([
        [27.78093394406464, -208.02785730090133, 524.1878839694918, -543.8283560361325,
         199.88739542347736],
        [-3.641478498049213, 77.88337605511782, -264.89491356822634,
         317.67586907995275, -127.022853068795],
        [1.2525477211691187, -29.167414317829696, 137.90290440413477,
         -202.09087094360743, 92.10283313613321],
        [-0.5920031671845428, 14.111895563613205, -72.39587480540027,
         123.04335789978718, -64.16737549081559],
        [0.2, -4.8, 25.2, -44.8, 25.2]]),
}


class TestTableau:
    """The seven-stage constants of radau.py against their construction
    from the Gauss-Radau nodes in 60-digit arithmetic, and the
    construction against the five-stage constants the stepper used before
    and the three-stage closed forms of Hairer & Wanner's RADAU5.  A
    float64 construction would not do: it leaves |T M0^-1 TI - A| near
    1e-11, which shows in TestAccuracy::test_closed_form."""

    def test_seven_stage_constants(self):
        built = _radau_iia(7)
        assert radau.STAGES == 7
        for name in ("C", "E", "MU_REAL", "MU_COMPLEX", "T", "TI", "M0", "P"):
            assert np.array_equal(built[name], getattr(radau, name)), name
        c, A = radau.C, built["A"]
        k = np.arange(1, 8)
        # simplifying conditions: A c^(k-1) = c^k / k
        assert np.abs(A @ c[:, None] ** (k - 1) - c[:, None] ** k / k).max() <= 1e-13
        # the embedded weights that radau.E encodes have order 7
        gamma0 = 1 / radau.MU_REAL
        b_hat = A[-1] + gamma0 * A.T @ radau.E
        assert gamma0 + b_hat.sum() == pytest.approx(1.0, abs=1e-13)
        assert np.abs(b_hat @ c[:, None] ** (k[1:] - 1) - 1 / k[1:]).max() <= 1e-12
        # P reproduces the stage increments at the nodes
        Z = np.random.default_rng(7).standard_normal((7, 3))
        Q = Z.T @ radau.P
        assert np.abs(Q @ (c[:, None] ** k).T - Z.T).max() <= 1e-11

    def test_five_stage_construction(self):
        """At s = 5 the construction gives the five-stage literals bit for
        bit, and an M0 of the same eigenvalues."""
        built = _radau_iia(5)
        for name, value in FIVE_STAGE.items():
            assert np.array_equal(built[name], value), name
        m1, m2 = FIVE_STAGE["MU_COMPLEX"]
        assert np.array_equal(built["M0"], [
            [FIVE_STAGE["MU_REAL"], 0, 0, 0, 0],
            [0, m1.real, -m1.imag, 0, 0],
            [0, m1.imag, m1.real, 0, 0],
            [0, 0, 0, m2.real, -m2.imag],
            [0, 0, 0, m2.imag, m2.real]])

    def test_three_stage_construction(self):
        """At s = 3 the construction gives RADAU5's closed forms."""
        s6 = 6 ** 0.5
        built = _radau_iia(3)
        c, E, P = built["C"], built["E"], built["P"]
        assert np.abs(c - [(4 - s6) / 10, (4 + s6) / 10, 1]).max() <= 1e-15
        assert np.abs(E - np.array([-13 - 7 * s6, -13 + 7 * s6, -1]) / 3).max() <= 1e-13
        assert np.abs(P - [[13 / 3 + 7 * s6 / 3, -23 / 3 - 22 * s6 / 3, 10 / 3 + 5 * s6],
                           [13 / 3 - 7 * s6 / 3, -23 / 3 + 22 * s6 / 3, 10 / 3 - 5 * s6],
                           [1 / 3, -8 / 3, 10 / 3]]).max() <= 1e-13
        assert abs(built["MU_REAL"] - (3 + 3 ** (2 / 3) - 3 ** (1 / 3))) <= 1e-13


class TestDenseOutput:
    """The Radau segment's stacked interpolant against scipy's OdeSolution
    over the same per-step Radau polynomials."""

    @pytest.mark.parametrize("name", ["d2_3", "rf_d2_2_3"])
    def test_matches_ode_solution(self, pipeline, name):
        dense = pipeline(name).traj.segments[0]
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
        scipy's interpolant of that step; fraction 0 is the step's sample,
        and ds/dx is the step size."""
        dense = pipeline(name).traj.segments[0]
        ts = dense.ts
        x = np.array([0.0, 0.03, 0.5, 0.97, 1.0])
        got, ds_dx = dense.at_fractions(x)
        assert got.shape == (ts.size - 1, dense.samples.shape[1], x.size)
        assert np.array_equal(ds_dx, np.repeat(np.diff(ts)[:, None], x.size, axis=1))
        assert np.array_equal(got[:, :, 0], dense.samples[:-1])
        expected = np.stack([
            RadauDenseOutput(ts[k], ts[k + 1], dense.samples[k], dense.Q[k])(
                ts[k] + x * (ts[k + 1] - ts[k]))
            for k in range(ts.size - 1)
        ])
        tol = 8 * np.finfo(float).eps * np.abs(expected).max()
        assert np.abs(got - expected).max() <= tol

    @pytest.mark.parametrize("N", [1, 2, 250])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_read_is_the_per_power_loop(self, n, N):
        """A read is, bit for bit, the per-power loop of
        `_per_power_read`, at the sizes the package runs the stepper at,
        on step ends, step interiors, abscissae before the first sample
        and after the last, and all four mixed; a second read, from the
        segment's cached coefficients, is the same."""
        segment, _ = radau.run_segment(_linear_solver(n), lambda t, y: False)
        rng = np.random.default_rng([n, N])
        for kind in ABSCISSAE:
            t = _abscissae(segment.ts, kind, N, rng)
            expected = _per_power_read(segment, t)
            for _ in range(2):
                got = segment(t)
                assert got.shape == expected.shape == (n, N)
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("N", [1, 2, 250])
    @pytest.mark.parametrize("name", ["d2", "d2_2_3"])
    def test_tail_read_is_the_per_power_loop(self, pipeline, name, N):
        """The tail's reads in tau and in s, on the graph of its Radau
        segment's interpolant, are bit for bit those of the per-power
        loop, at the abscissae of `test_read_is_the_per_power_loop` in
        tau."""
        tail = pipeline(name).traj.segments[-1]
        assert isinstance(tail, flow.TailSegment)

        def expected(tau):
            return flow._on_graph(tail.dims, tail.u0, tail.taus[0],
                                  lambda x: _per_power_read(tail.dense, x), tau)

        rng = np.random.default_rng(N)
        for kind in ABSCISSAE:
            tau = _abscissae(tail.dense.ts, kind, N, rng)
            assert tail.states_at_tau(tau).tobytes() == expected(tau).tobytes()
            s = np.exp(tau)
            assert tail(s).tobytes() == expected(np.log(s)).T.tobytes()


def _linear_solver(n):
    """The stepper on a seeded linear system y' = A y of n components, A a
    skew-symmetric matrix less I, over t in [0, 10]: 23 to 97 steps."""
    rng = np.random.default_rng([1, n])
    B = rng.standard_normal((n, n))
    A = B - B.T - np.identity(n)
    return radau.Radau(lambda y: y.dot(A.T), lambda y: A, 0.0, rng.standard_normal(n),
                       t_bound=10.0, rtol=1e-10, atol=1e-12)


def _per_power_read(segment, t):
    """A `RadauSegment` read as one loop over the powers of x: each power
    the one before times x, each term Q[k, :, j] x^j gathered and added
    to the step's sample in turn."""
    t = np.asarray(t, dtype=float)
    ts = segment.ts
    k = np.searchsorted(ts, t, side="left") - 1
    np.clip(k, 0, ts.size - 2, out=k)
    t_old = ts[k]
    x = (t - t_old) / (ts[k + 1] - t_old)
    y = segment.samples[k]
    power = np.ones_like(x)
    for j in range(segment.Q.shape[2]):
        power *= x
        y += segment.Q[k, :, j] * power[:, None]
    return y.T


ABSCISSAE = ("ends", "interiors", "before", "after", "mixed")


def _abscissae(ts, kind, N, rng):
    """N abscissae of one kind for a segment over the steps ts: step ends
    (the samples), step interiors, up to two first steps before ts[0],
    up to two last steps after ts[-1], or each drawn from one of those
    four at random."""
    if kind == "mixed":
        pools = np.stack([_abscissae(ts, kind, N, rng) for kind in ABSCISSAE[:-1]])
        return pools[rng.integers(0, 4, N), np.arange(N)]
    if kind == "ends":
        return rng.choice(ts, N)
    if kind == "interiors":
        k = rng.integers(0, ts.size - 1, N)
        return ts[k] + rng.uniform(0.01, 0.99, N) * (ts[k + 1] - ts[k])
    if kind == "before":
        return ts[0] - rng.uniform(0.0, 2.0, N) * (ts[1] - ts[0])
    return ts[-1] + rng.uniform(0.0, 2.0, N) * (ts[-1] - ts[-2])
