"""Independent second-order (t-space) cross-validation of the pipeline."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import solitonforge as sf
from solitonforge import oracle
from solitonforge.errors import (
    BlowUp,
    OutOfRange,
    SolitonForgeError,
    StepLimitExceeded,
    ValidationError,
)

from conftest import CASES, SOLITON_CASES, make_spec

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def run_oracle(case, decades=1.0):
    prof = case.profile
    t0 = 10.0 * float(prof.t[0])
    state = oracle.init_from_profile(prof, t0)
    t_end = min(t0 * 10.0**decades, float(prof.t[-1]))
    return oracle.integrate_second_order(state, case.spec, t_end)


class TestInit:
    def test_sample_point_exact(self, pipeline):
        prof = pipeline("d2_3").profile
        k = len(prof.t) // 2
        state = oracle.init_from_profile(prof, float(prof.t[k]))
        assert state.t == prof.t[k]
        assert np.array_equal(state.g, prof.g[k])
        assert np.array_equal(state.g_dot, prof.g_dot[k])
        assert state.u_dot == prof.u_dot[k]

    def test_between_samples_starts_at_the_next_sample(self, pipeline):
        """A t0 between two samples starts the oracle at the later one,
        with that sample's own values."""
        prof = pipeline("d2").profile
        k = len(prof.t) // 3
        t_mid = 0.5 * (prof.t[k] + prof.t[k + 1])
        state = oracle.init_from_profile(prof, float(t_mid))
        assert state.t == prof.t[k + 1]
        assert np.array_equal(state.g, prof.g[k + 1])
        assert np.array_equal(state.g_dot, prof.g_dot[k + 1])
        assert state.u_dot == prof.u_dot[k + 1]

    def test_t_zero_out_of_range(self, pipeline):
        with pytest.raises(OutOfRange):
            oracle.init_from_profile(pipeline("d2").profile, 0.0)

    def test_oracle_run_loads_no_scipy_interpolate(self, tmp_path):
        """An `oracle` run starts at a sample and so interpolates nothing:
        it loads scipy.integrate for the integration, and not
        scipy.interpolate."""
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        code = (
            "import sys\n"
            "import solitonforge.cli\n"
            "code = solitonforge.cli.main(sys.argv[1:])\n"
            "print('scipy.integrate' in sys.modules, "
            "'scipy.interpolate' in sys.modules, code)\n"
        )
        config = os.path.join(CONFIG_DIR, "bryant_d2.json")
        proc = subprocess.run(
            [sys.executable, "-c", code, "oracle", "--config", config,
             "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "True False 0"


class TestConservation:
    @pytest.mark.parametrize("name", SOLITON_CASES)
    def test_drift_and_value(self, pipeline, name):
        case = pipeline(name)
        run = run_oracle(case)
        assert run.conservation_drift() <= 1e-8
        # the conserved quantity equals the gauge constant C
        assert run.conservation[0] == pytest.approx(case.spec.gauge_C, abs=1e-8)


    @staticmethod
    def _per_sample(y, spec):
        """The conserved quantity of one state as numpy expressions, with
        a BLAS dot for tr L."""
        r = spec.r
        g, gd, ud = y[:r], y[r:2 * r], y[-1]
        rel = gd / g
        tr_L = spec.dims @ rel
        return float((spec.dims * spec.lambdas / g**2).sum()
                     + (spec.dims * rel**2).sum() - (ud - tr_L) ** 2)

    @staticmethod
    def _term_scale(y, spec):
        """The size of the terms the quantity is summed from, as in
        TestField: the ulp to measure a change of summation order in."""
        r = spec.r
        g, gd, ud = y[:r], y[r:2 * r], y[-1]
        rel = gd / g
        return float((spec.dims * spec.lambdas / g**2).sum()
                     + (spec.dims * rel**2).sum()
                     + (abs(ud) + spec.dims @ np.abs(rel)) ** 2)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_per_sample_form_to_4_ulp(self, pipeline, name):
        """The one vectorised pass over the samples sums tr L left to right
        where the per-sample form calls BLAS, so each sample's value, and
        the drift, agree with it to 4 ulps of the terms summed."""
        case = pipeline(name)
        run = run_oracle(case)
        states = np.column_stack([run.g, run.g_dot, run.u_dot])
        expected = np.array([self._per_sample(y, case.spec) for y in states])
        ulp = np.spacing([self._term_scale(y, case.spec) for y in states])
        assert run.conservation.shape == expected.shape
        assert np.all(np.abs(run.conservation - expected) <= 4 * ulp)
        drift = np.abs(expected - expected[0]).max()
        assert abs(run.conservation_drift() - drift) <= 4 * (ulp[0] + ulp.max())


class TestCrossValidation:
    @pytest.mark.parametrize("name", SOLITON_CASES)
    def test_agreement_over_a_decade(self, pipeline, name):
        case = pipeline(name)
        run = run_oracle(case, decades=1.0)
        devs = oracle.compare_profiles(case.profile, run)
        assert max(devs.values()) <= 1e-6

    def test_profile_vs_itself(self, pipeline):
        """Degenerate sanity case: an oracle run re-sampled on its own grid."""
        case = pipeline("d2")
        run = run_oracle(case)
        devs = oracle.compare_profiles(case.profile, run)
        assert min(devs.values()) >= 0.0

    def test_corrupted_lambda_detected(self, pipeline):
        """Integrating the oracle with a wrong Einstein constant must break
        the agreement: detector sensitivity of the cross-validation."""
        case = pipeline("d2_3")
        bad_factors = (
            case.spec.factors[0],
            sf.FactorSpec(case.spec.factors[1].dim,
                          case.spec.factors[1].einstein_const * 1.01),
        )
        bad_spec = dataclasses.replace(case.spec, factors=bad_factors)
        prof = case.profile
        t0 = 10.0 * float(prof.t[0])
        state = oracle.init_from_profile(prof, t0)
        run = oracle.integrate_second_order(state, bad_spec, t0 * 10.0)
        devs = oracle.compare_profiles(prof, run)
        assert max(devs.values()) >= 1e-3

    def test_ricci_flat_u_dot_stays_zero(self, pipeline):
        case = pipeline("rf_d2_3")
        run = run_oracle(case)
        assert np.abs(run.u_dot).max() <= 1e-8


def _start(spec, **fields):
    """A valid start of the t-space system for `spec`, with fields replaced."""
    r = spec.r
    state = oracle.SecondOrderState(t=1.0, g=np.linspace(0.5, 1.0, r),
                                    g_dot=np.linspace(1.0, 0.5, r), u_dot=-0.3)
    return dataclasses.replace(state, **fields)


class TestStartState:
    """A start the t-space system is not defined at is rejected before
    anything is integrated, with the field named."""

    @pytest.mark.parametrize("field, value", [
        ("g", np.array([0.0, 1.0])),
        ("g", np.array([-0.5, 1.0])),
        ("g", np.array([0.5, np.nan])),
        ("g", np.array([0.5, np.inf])),
        ("g_dot", np.array([np.nan, 0.5])),
        ("g_dot", np.array([1.0, -np.inf])),
        ("u_dot", np.nan),
        ("u_dot", np.inf),
    ])
    def test_bad_start_rejected(self, field, value):
        spec = make_spec("d2_3")
        state = _start(spec, **{field: value})
        with pytest.raises(ValidationError, match=rf"\b{field} must be finite"):
            oracle.integrate_second_order(state, spec, 2.0)

    def test_g_squared_underflowing_to_zero_is_a_blow_up(self):
        """g_1 = 1e-200 is a valid start, but g_1^2 is 0 in doubles, so the
        field divides by zero on its first evaluation."""
        spec = make_spec("d2_3")
        state = _start(spec, g=np.array([1e-200, 1.0]))
        with pytest.raises(BlowUp, match="reached 0"):
            oracle.integrate_second_order(state, spec, 2.0)


def _solve_ivp_run(state, spec, t_end):
    """The oracle run through scipy's ``solve_ivp``, with the same field,
    tolerances, collapse event and error mapping: the reference that the
    package's DOP853 loop repeats bit for bit."""
    from scipy.integrate import solve_ivp

    r = spec.r
    d, lam = spec.dims.tolist(), spec.lambdas.tolist()

    def rhs(t, y):
        return oracle.t_field(y.tolist(), d, lam)

    def collapse(t, y):
        return float(y[:r].min()) - 1e-12
    collapse.terminal = True

    try:
        sol = solve_ivp(rhs, (state.t, t_end), state.as_vector(), method="DOP853",
                        rtol=1e-12, atol=1e-12, dense_output=True, events=collapse)
    except ZeroDivisionError as exc:
        raise BlowUp(f"a warping function reached 0 before t = {t_end:g}") from exc
    if sol.status == -1:
        raise StepLimitExceeded(f"oracle integration failed: {sol.message}")
    if sol.status == 1 or not np.all(np.isfinite(sol.y)):
        raise BlowUp(f"a warping function left (0, inf) before t = {t_end:g}")
    return oracle.OracleRun(
        t=sol.t, g=sol.y[:r].T, g_dot=sol.y[r:2 * r].T, u_dot=sol.y[-1],
        conservation=oracle.conservation_quantity(sol.y, spec), dense=sol.sol)


def _outcome(integrate, state, spec, t_end):
    """The run, or the class and message of the error it raised."""
    try:
        return integrate(state, spec, t_end)
    except SolitonForgeError as exc:
        return type(exc), str(exc)


def _same_outcome(state, spec, t_end):
    """The package's run and solve_ivp's, after asserting that both raised
    the same error or sampled the same arrays bit for bit."""
    got = _outcome(oracle.integrate_second_order, state, spec, t_end)
    expected = _outcome(_solve_ivp_run, state, spec, t_end)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        for field in ("t", "g", "g_dot", "u_dot", "conservation"):
            assert np.array_equal(getattr(got, field), getattr(expected, field)), field
    return got, expected


class TestSolveIvpIdentity:
    """The package's DOP853 step loop against ``solve_ivp`` itself: the
    same samples, dense output and deviations bit for bit, and the same
    errors."""

    # d2_2_3 is the spec of the shipped r3_d2_2_3 config
    @pytest.mark.parametrize("name", ["d2_3", "rf_d2_2_3", "d2_2_3"])
    def test_run_is_bit_identical(self, pipeline, name):
        case = pipeline(name)
        prof = case.profile
        t0 = 10.0 * float(prof.t[0])   # as cmd_oracle
        state = oracle.init_from_profile(prof, t0)
        run, ref = _same_outcome(state, case.spec, min(100.0 * t0, float(prof.t[-1])))
        assert isinstance(run, oracle.OracleRun)
        # the whole profile grid, most of which lies outside the run, where
        # both extrapolate from the end steps, and the step ends, each of
        # which takes the step before it
        t = np.concatenate([prof.t, run.t])
        assert np.array_equal(run.dense(t), ref.dense(t))
        assert oracle.compare_profiles(prof, run) == oracle.compare_profiles(prof, ref)

    @pytest.mark.parametrize("g, g_dot", [
        ([0.5, 1.0], [-3.0, 0.5]),     # g_1 falls through 1e-12
        ([1e-13, 1.0], [-3.0, 0.5]),   # g_1 starts in (0, 1e-12] and falls
        ([5e-13, 1.0], [1.0, 0.5]),    # g_1 starts in (0, 1e-12] and rises
    ])
    def test_collapse_fails_as_solve_ivp(self, g, g_dot):
        """Near g_1 = 0 the field is singular, and the step size falls
        below ten ulps of t before the collapse event can fire."""
        spec = make_spec("d2_3")
        state = _start(spec, g=np.array(g), g_dot=np.array(g_dot))
        outcome, _ = _same_outcome(state, spec, 10.0)
        assert outcome[0] is StepLimitExceeded

    @pytest.mark.parametrize("g1, expected", [
        (0.5, BlowUp),     # falls through 1e-12
        (1e-12, BlowUp),   # starts at 1e-12: min(g) - 1e-12 is 0 there
        (5e-13, None),     # starts below 1e-12: no sign change, ever
    ])
    def test_collapse_event_as_solve_ivp(self, monkeypatch, g1, expected):
        """With a field in which g_1 falls at unit speed, the event fires
        on a sign change of min(g) - 1e-12 between two step ends, an end
        at 0 included; a run that starts below 1e-12 goes on past g_1 = 0
        to t_end, as solve_ivp's does."""
        monkeypatch.setattr(oracle, "t_field",
                            lambda v, d, lam: [-1.0] + [0.0] * (len(v) - 1))
        spec = make_spec("d2_3")
        state = _start(spec, g=np.array([g1, 1.0]))
        outcome, _ = _same_outcome(state, spec, 2.0)
        if expected is None:
            assert outcome.g[-1, 0] < 0.0
        else:
            assert outcome == (expected, "a warping function left (0, inf) before t = 2")

    @pytest.mark.parametrize("t_end", [1.0, 0.9])
    def test_empty_and_backward_runs_as_solve_ivp(self, t_end):
        """t_end at the start gives a run of length 0, whose dense output is
        the start state; a t_end before it integrates backward."""
        spec = make_spec("d2_3")
        state = _start(spec, g_dot=np.array([0.1, 0.1]))
        run, ref = _same_outcome(state, spec, t_end)
        t = np.array([0.8, 0.95, 1.0, 1.1])
        assert np.array_equal(run.dense(t), ref.dense(t))

    def test_non_finite_field_at_the_start_ends_the_run(self):
        """g_1 = 1e-160 is a valid start, but lambda_1 / g_1^2 overflows and
        the field is not finite there, so the initial step size is NaN.
        solve_ivp's step loop rejects such a step without end; this one
        stops with the step-size error."""
        spec = make_spec("d2_3")
        state = _start(spec, g=np.array([1e-160, 1.0]))
        with pytest.raises(StepLimitExceeded, match="less than spacing"):
            oracle.integrate_second_order(state, spec, 2.0)


class TestField:
    @staticmethod
    def _numpy_field(y, d, lam):
        """The t-space field as numpy expressions, with BLAS dots."""
        r = d.size
        g, gd, ud = y[:r], y[r:2 * r], y[-1]
        rel = gd / g
        tr_L = d @ rel
        gdd_over_g = lam / g**2 - tr_L * rel + ud * rel + rel**2
        u_dd = d @ gdd_over_g
        return np.concatenate([gd, gdd_over_g * g, [u_dd]])

    @staticmethod
    def _term_scale(y, d, lam):
        """Per entry, the size of the terms it is summed from: the ulp
        to measure a change of summation order in, since the sum itself
        may cancel to far below its terms."""
        r = d.size
        g, gd, ud = y[:r], y[r:2 * r], y[-1]
        rel = gd / g
        tr_abs = d @ np.abs(rel)
        q = lam / g**2 + tr_abs * np.abs(rel) + abs(ud) * np.abs(rel) + rel**2
        return np.concatenate([np.abs(gd), q * g, [d @ q]])

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_matches_numpy_form_to_4_ulp(self, r):
        """t_field sums its two dot products left to right where numpy
        calls BLAS, so the two agree to a few ulps of the terms summed."""
        rng = np.random.default_rng(20 + r)
        for _ in range(500):
            d = rng.integers(2, 10, r).astype(float)
            lam = d - 1.0 + rng.uniform(-0.5, 0.5, r)
            g = 10.0 ** rng.uniform(-3, 3, r)
            gd = rng.uniform(-1, 1, r) * 10.0 ** rng.uniform(-3, 3, r)
            y = np.concatenate([g, gd, [rng.uniform(-5, 5)]])
            got = np.array(oracle.t_field(y.tolist(), d.tolist(), lam.tolist()))
            expected = self._numpy_field(y, d, lam)
            ulp = np.spacing(self._term_scale(y, d, lam))
            assert np.all(np.abs(got - expected) <= 4 * ulp)
            # the g' entries are copied, not computed
            assert np.array_equal(got[:r], gd)
